#!/usr/bin/env python3
"""Project-invariant linter for the bullion tree.

Dependency-free (stdlib only) so it runs anywhere a python3 exists:
locally via `cmake --build build --target lint`, in CI, and inside
tests/lint_test against fixture trees.

Rules (each has a stable id, printed in brackets):

  metric-name     Metric names passed to MetricsRegistry::Get{Counter,
                  Gauge,Histogram} must match `bullion.<area>.<name>`
                  (lowercase, digits, underscores; dots separate
                  segments).
  metric-docs     Every registered metric name must appear verbatim in
                  src/obs/README.md — the metric table is the public
                  contract, not the source code.
  env-var-docs    Every BULLION_* environment variable read via getenv
                  must be documented in some Markdown file in the tree.
  raw-mutex       No std::mutex / std::condition_variable members
                  outside src/common/mutex.h: the annotated wrappers
                  (Mutex, MutexLock, CondVar) are what Clang's thread
                  safety analysis can see.
  mutex-unannotated
                  A file that declares a Mutex member must carry at
                  least one GUARDED_BY / REQUIRES annotation — a bare
                  mutex with nothing annotated against it defeats the
                  analysis.
  raw-new         Naked `new` is banned unless the result lands in a
                  smart pointer on the same or previous line, or the
                  line carries `lint:allow(raw-new)` (intentional
                  immortal singletons). malloc / posix_memalign / free
                  are banned unless the line carries the same marker;
                  RAW_ALLOC_WHITELIST names files exempt from that
                  (none today).
  include-guard   Every header under src/ must start with #pragma once.
  bare-nolint     NOLINT must name its category: `// NOLINT(...)`.

Output format: `path:line: [rule-id] message`, one violation per line;
exit status 1 if anything fired, 0 on a clean tree.

Usage: lint.py [--root DIR]   (default: the repo containing this file)
"""

import argparse
import os
import re
import sys

METRIC_GETTER_RE = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\s*\(\s*"([^"]*)"')
METRIC_NAME_RE = re.compile(r'^bullion\.[a-z0-9_]+\.[a-z0-9_]+(?:\.[a-z0-9_]+)*$')
GETENV_RE = re.compile(r'getenv\s*\(\s*"(BULLION_[A-Z0-9_]+)"')
STD_MUTEX_RE = re.compile(
    r'\bstd::(mutex|shared_mutex|recursive_mutex|condition_variable(?:_any)?)\b')
MUTEX_MEMBER_RE = re.compile(r'^\s*(?:mutable\s+)?Mutex\s+\w+\s*;')
ANNOTATION_RE = re.compile(r'\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES)\s*\(')
NEW_EXPR_RE = re.compile(r'(?<![\w.])new\s+[A-Za-z_:<]')
SMART_WRAP_RE = re.compile(
    r'std::(?:unique_ptr|shared_ptr)\s*<|\bmake_unique\b|\bmake_shared\b|'
    r'\.reset\s*\(|\breset\s*\(\s*new\b|WrapUnique|\bstd::nothrow\b')
RAW_ALLOC_RE = re.compile(r'\b(malloc|calloc|realloc|posix_memalign|free)\s*\(')
NOLINT_RE = re.compile(r'//\s*NOLINT(?!NEXTLINE)(\(|\b)')

RAW_ALLOC_WHITELIST = set()
ALLOW_RAW_NEW = 'lint:allow(raw-new)'


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []

    def report(self, path, line, rule, message):
        rel = os.path.relpath(path, self.root)
        self.violations.append((rel, line, rule, message))

    # ---------------------------------------------------------------- files
    def source_files(self):
        src = os.path.join(self.root, 'src')
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(('.h', '.cc')):
                    yield os.path.join(dirpath, name)

    def markdown_corpus(self):
        """Concatenated text of every .md in the tree (skipping build dirs
        and the lint fixtures, which deliberately leave things undocumented)."""
        chunks = []
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(('build', '.git')) and d != 'lint_fixtures')
            for name in sorted(filenames):
                if name.endswith('.md'):
                    try:
                        with open(os.path.join(dirpath, name),
                                  encoding='utf-8', errors='replace') as f:
                            chunks.append(f.read())
                    except OSError:
                        pass
        return '\n'.join(chunks)

    # ---------------------------------------------------------------- rules
    def check_file(self, path, metric_docs, md_corpus):
        rel = os.path.relpath(path, self.root)
        try:
            with open(path, encoding='utf-8', errors='replace') as f:
                text = f.read()
        except OSError as e:
            self.report(path, 0, 'io-error', str(e))
            return
        lines = text.splitlines()

        # include-guard: headers must use #pragma once.
        if path.endswith('.h') and '#pragma once' not in text:
            self.report(path, 1, 'include-guard',
                        'header is missing `#pragma once`')

        # metric-name / metric-docs. The getter call and its string
        # literal may be split across lines, so match on the whole text
        # and recover the line number from the match offset.
        for m in METRIC_GETTER_RE.finditer(text):
            name = m.group(1)
            line = text.count('\n', 0, m.start()) + 1
            if not METRIC_NAME_RE.match(name):
                self.report(path, line, 'metric-name',
                            f'metric "{name}" does not match '
                            'bullion.<area>.<name> (lowercase/digits/_)')
            elif metric_docs is not None and name not in metric_docs:
                self.report(path, line, 'metric-docs',
                            f'metric "{name}" is not documented in '
                            'src/obs/README.md')

        # env-var-docs.
        for m in GETENV_RE.finditer(text):
            var = m.group(1)
            line = text.count('\n', 0, m.start()) + 1
            if var not in md_corpus:
                self.report(path, line, 'env-var-docs',
                            f'environment variable {var} is read here but '
                            'documented in no .md file')

        in_mutex_header = rel == os.path.join('src', 'common', 'mutex.h')
        declares_mutex_member = False
        has_annotation = ANNOTATION_RE.search(text) is not None

        for i, raw in enumerate(lines, start=1):
            code = raw.split('//', 1)[0]
            comment = raw[len(code):]

            # raw-mutex.
            if not in_mutex_header and STD_MUTEX_RE.search(code):
                self.report(path, i, 'raw-mutex',
                            'use bullion::Mutex / CondVar from '
                            'common/mutex.h, not std:: primitives '
                            '(thread-safety analysis cannot see these)')

            if MUTEX_MEMBER_RE.match(code):
                declares_mutex_member = True

            # raw-new.
            if NEW_EXPR_RE.search(code) and ALLOW_RAW_NEW not in raw:
                prev = lines[i - 2] if i >= 2 else ''
                if not (SMART_WRAP_RE.search(code)
                        or SMART_WRAP_RE.search(prev)):
                    self.report(path, i, 'raw-new',
                                'naked `new` — own it with a smart pointer '
                                f'or mark `// {ALLOW_RAW_NEW}` with a reason')

            # raw-alloc (C allocator family).
            if rel not in RAW_ALLOC_WHITELIST:
                m = RAW_ALLOC_RE.search(code)
                if m and ALLOW_RAW_NEW not in raw:
                    self.report(path, i, 'raw-new',
                                f'{m.group(1)}() — use a container or smart '
                                f'pointer, or mark `// {ALLOW_RAW_NEW}` with '
                                'a reason')

            # bare-nolint.
            m = NOLINT_RE.search(comment)
            if m and m.group(1) != '(':
                self.report(path, i, 'bare-nolint',
                            'NOLINT without a category — write '
                            'NOLINT(<check-name>)')

        if declares_mutex_member and not has_annotation:
            self.report(path, 1, 'mutex-unannotated',
                        'file declares a Mutex member but has no '
                        'GUARDED_BY/REQUIRES annotations')

    # ----------------------------------------------------------------- run
    def run(self):
        readme = os.path.join(self.root, 'src', 'obs', 'README.md')
        metric_docs = None
        if os.path.exists(readme):
            with open(readme, encoding='utf-8', errors='replace') as f:
                metric_docs = f.read()
        elif os.path.isdir(os.path.join(self.root, 'src')):
            # No metric table at all: every registered metric is
            # undocumented by definition.
            metric_docs = ''
        md_corpus = self.markdown_corpus()
        for path in self.source_files():
            self.check_file(path, metric_docs, md_corpus)
        for rel, line, rule, message in self.violations:
            print(f'{rel}:{line}: [{rule}] {message}')
        if self.violations:
            print(f'lint: {len(self.violations)} violation(s)',
                  file=sys.stderr)
            return 1
        return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument('--root', default=default_root,
                        help='tree to lint (default: this repo)')
    args = parser.parse_args()
    return Linter(os.path.abspath(args.root)).run()


if __name__ == '__main__':
    sys.exit(main())
