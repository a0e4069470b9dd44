#include "task/task.h"

#include "common/check.h"

namespace versa {

const char* to_string(TaskState state) {
  switch (state) {
    case TaskState::kCreated:
      return "created";
    case TaskState::kReady:
      return "ready";
    case TaskState::kQueued:
      return "queued";
    case TaskState::kRunning:
      return "running";
    case TaskState::kFinished:
      return "finished";
  }
  return "?";
}

TaskContext::TaskContext(std::size_t arg_count, WorkerId worker,
                         DeviceKind device)
    : args_(inline_.data()),
      count_(arg_count),
      worker_(worker),
      device_(device) {
  if (arg_count > kInlineArgs) {
    spill_ = std::make_unique<ResolvedArg[]>(arg_count);
    args_ = spill_.get();
  }
}

void* TaskContext::arg(std::size_t index) const {
  VERSA_CHECK(index < count_);
  return args_[index].ptr;
}

std::uint64_t TaskContext::arg_size(std::size_t index) const {
  VERSA_CHECK(index < count_);
  return args_[index].size;
}

void AccessWitness::span(std::size_t index, AccessMode mode,
                         std::uint64_t off, std::uint64_t len) {
  if (ctx_.witness_ == nullptr) return;
  VERSA_CHECK(index < ctx_.count_);
  const ResolvedArg& arg = ctx_.args_[index];
  if (off >= arg.size) return;
  const std::uint64_t avail = arg.size - off;
  const std::uint64_t span_len = len < avail ? len : avail;
  if (span_len == 0) return;
  ctx_.witness_->push_back(
      WitnessSpan{arg.region, mode, arg.offset + off, span_len});
}

void AccessWitness::touch_bytes(RegionId region, AccessMode mode,
                                std::uint64_t offset, std::uint64_t length) {
  if (ctx_.witness_ == nullptr || length == 0) return;
  ctx_.witness_->push_back(WitnessSpan{region, mode, offset, length});
}

}  // namespace versa
