#include "exec/executor.h"

namespace versa {
namespace {

/// Task whose body runs on the calling thread; kInvalidTask on the master
/// thread and on idle workers.
thread_local TaskId tls_current_task = kInvalidTask;

}  // namespace

TaskId Executor::current_task() const { return tls_current_task; }

WitnessLog Executor::run_body(const Task& task, const TaskVersion& version,
                              TaskContext& ctx) {
  WitnessLog witness;
  if (port_->port_witnessing()) ctx.set_witness_log(&witness);
  const TaskId previous = tls_current_task;
  tls_current_task = task.id;
  version.fn(ctx);
  tls_current_task = previous;
  return witness;
}

}  // namespace versa
