#include "io/aio.h"

#include <algorithm>

namespace bullion {

const char* AioTierName(AioTier tier) {
  switch (tier) {
    case AioTier::kSync:
      return "sync";
    case AioTier::kThreads:
      return "threads";
    case AioTier::kUring:
      return "uring";
  }
  return "unknown";
}

AioTier DefaultAioTier() { return AioTier::kSync; }

AggregatedWriteBuffer::AggregatedWriteBuffer(WritableFile* base,
                                             size_t block_bytes)
    // A zero block size would never fill; one byte per block is the
    // degenerate but terminating reading of it.
    : base_(base), block_bytes_(std::max<size_t>(block_bytes, 1)) {
  if (auto size = base_->Size(); size.ok()) size0_ = *size;
}

Status AggregatedWriteBuffer::Append(Slice data) {
  BULLION_RETURN_NOT_OK(error_);
  // The logical op is counted at absorption; the physical write_call
  // when the containing block is written (base AppendBlock).
  if (IoStats* stats = base_->stats(); stats != nullptr) {
    stats->write_ops += 1;
  }
  absorbed_ += data.size();
  size_t off = 0;
  while (off < data.size()) {
    if (block_.size() == 0) block_.Reserve(block_bytes_);
    size_t n = std::min(data.size() - off, block_bytes_ - block_.size());
    block_.Append(data.data() + off, n);
    off += n;
    if (block_.size() == block_bytes_) BULLION_RETURN_NOT_OK(WriteBlock());
  }
  return Status::OK();
}

Status AggregatedWriteBuffer::WriteBlock() {
  if (error_.ok() && block_.size() > 0) {
    error_ = base_->AppendBlock(block_.AsSlice());
    block_.Clear();
  }
  return error_;
}

Status AggregatedWriteBuffer::Flush() {
  BULLION_RETURN_NOT_OK(WriteBlock());
  return base_->Flush();
}

Result<uint64_t> AggregatedWriteBuffer::Size() const {
  return size0_ + absorbed_;
}

Status AggregatedWriteBuffer::WriteAt(uint64_t offset, Slice data) {
  BULLION_RETURN_NOT_OK(WriteBlock());
  return base_->WriteAt(offset, data);
}

}  // namespace bullion
