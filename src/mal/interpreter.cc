#include "mal/interpreter.h"

#include <condition_variable>
#include <mutex>

#include "common/logging.h"
#include "exec/executor.h"

namespace dcy::mal {

void Registry::Register(const std::string& full_name, BuiltinFn fn) {
  DCY_CHECK(fns_.emplace(full_name, std::move(fn)).second)
      << "duplicate builtin " << full_name;
}

const BuiltinFn* Registry::Find(const std::string& full_name) const {
  auto it = fns_.find(full_name);
  return it == fns_.end() ? nullptr : &it->second;
}

std::vector<std::string> Registry::Names() const {
  std::vector<std::string> names;
  names.reserve(fns_.size());
  for (const auto& [name, _] : fns_) names.push_back(name);
  return names;
}

Result<Datum> Interpreter::ExecInstruction(const Instruction& ins,
                                           std::unordered_map<std::string, Datum>* vars) {
  const BuiltinFn* fn = registry_->Find(ins.FullName());
  if (fn == nullptr) return Status::Unimplemented("unknown MAL call " + ins.FullName());
  std::vector<Datum> args;
  args.reserve(ins.args.size());
  for (const Arg& a : ins.args) {
    if (a.is_var()) {
      auto it = vars->find(a.var);
      if (it == vars->end()) {
        return Status::FailedPrecondition("undefined variable " + a.var + " in " +
                                          ins.ToString());
      }
      args.push_back(it->second);
    } else {
      args.push_back(a.literal);
    }
  }
  auto result = (*fn)(context_, args);
  if (!result.ok()) {
    return Status(result.status().code(),
                  ins.ToString() + ": " + result.status().message());
  }
  return result;
}

Result<Datum> Interpreter::Execute(const Program& program, const ExecOptions& options) {
  if (options.workers <= 1) return RunSequential(program, options);
  return RunParallel(program, options);
}

Result<Datum> Interpreter::Run(const Program& program) {
  return RunSequential(program, ExecOptions{});
}

Result<Datum> Interpreter::RunSequential(const Program& program,
                                         const ExecOptions& options) {
  vars_.clear();
  if (options.params != nullptr) vars_ = *options.params;
  Datum last;
  for (const Instruction& ins : program.instructions) {
    if (options.cancel != nullptr) DCY_RETURN_NOT_OK(options.cancel->CheckLive());
    DCY_ASSIGN_OR_RETURN(Datum value, ExecInstruction(ins, &vars_));
    if (!ins.ret.empty()) {
      vars_[ins.ret] = value;
      last = std::move(value);
    }
  }
  return last;
}

std::vector<std::vector<size_t>> BuildDependencies(const Program& program) {
  const auto& ins = program.instructions;
  std::vector<std::vector<size_t>> deps(ins.size());
  std::unordered_map<std::string, size_t> last_writer;
  std::unordered_map<std::string, std::vector<size_t>> readers;

  for (size_t i = 0; i < ins.size(); ++i) {
    auto add_dep = [&](size_t from) {
      if (std::find(deps[i].begin(), deps[i].end(), from) == deps[i].end()) {
        deps[i].push_back(from);
      }
    };
    for (const Arg& a : ins[i].args) {
      if (!a.is_var()) continue;
      auto w = last_writer.find(a.var);
      if (w != last_writer.end()) add_dep(w->second);
      readers[a.var].push_back(i);
    }
    if (!ins[i].ret.empty()) {
      // True producer edge for future readers; also serialize against
      // earlier readers of the overwritten name (rare in SSA-ish MAL).
      for (size_t r : readers[ins[i].ret]) {
        if (r != i) add_dep(r);
      }
      last_writer[ins[i].ret] = i;
    } else if (!ins[i].args.empty() && ins[i].args[0].is_var()) {
      // Void calls mutate their first argument (sql.rsCol) or release it
      // (datacyclotron.unpin): order them after all earlier readers and
      // make them the variable's latest writer so later uses follow them.
      for (size_t r : readers[ins[i].args[0].var]) {
        if (r != i) add_dep(r);
      }
      last_writer[ins[i].args[0].var] = i;
    }
  }
  return deps;
}

Result<Datum> Interpreter::RunParallel(const Program& program,
                                       const ExecOptions& options) {
  vars_.clear();
  if (options.params != nullptr) vars_ = *options.params;
  const CancelToken* cancel = options.cancel;
  const size_t workers = options.workers;

  const auto deps = BuildDependencies(program);
  const size_t n = program.instructions.size();
  std::vector<std::vector<size_t>> dependents(n);
  std::vector<size_t> missing(n, 0);
  for (size_t i = 0; i < n; ++i) {
    missing[i] = deps[i].size();
    for (size_t d : deps[i]) dependents[d].push_back(i);
  }

  // Dataflow state shared between the calling thread and helper tasks on the
  // process-wide executor. No per-query threads: helpers are plain tasks, so
  // concurrent query sessions share one worker pool (and steady-state
  // traffic creates zero threads — see ExecutorMetrics).
  struct Flow {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<size_t> ready;
    size_t completed = 0;
    size_t runners = 0;  ///< helper tasks submitted and not yet finished
    bool failed = false;
    Status first_error;
  } flow;
  for (size_t i = 0; i < n; ++i) {
    if (missing[i] == 0) flow.ready.push_back(i);
  }

  exec::Executor& executor = exec::Executor::Default();
  const size_t max_helpers = workers - 1;

  // Runs ready instructions until none remain (or the query failed).
  // Expects `lock` held; returns with it held.
  std::function<void(std::unique_lock<std::mutex>&)> pump;
  // Tops helper tasks up to min(max_helpers, outstanding ready work); call
  // with the lock held.
  auto spawn_helpers = [&] {
    while (flow.runners < max_helpers && flow.runners < flow.ready.size()) {
      ++flow.runners;
      executor.Submit([&] {
        std::unique_lock<std::mutex> lock(flow.mu);
        pump(lock);
        --flow.runners;
        flow.cv.notify_all();
      });
    }
  };
  pump = [&](std::unique_lock<std::mutex>& lock) {
    while (!flow.ready.empty() && !flow.failed) {
      if (cancel != nullptr) {
        Status live = cancel->CheckLive();
        if (!live.ok()) {
          flow.failed = true;
          flow.first_error = live;
          break;
        }
      }
      const size_t i = flow.ready.back();
      flow.ready.pop_back();
      // Copy argument bindings under the lock into a local map.
      std::unordered_map<std::string, Datum> local_args;
      for (const Arg& a : program.instructions[i].args) {
        if (a.is_var()) {
          auto it = vars_.find(a.var);
          if (it != vars_.end()) local_args.emplace(a.var, it->second);
        }
      }
      lock.unlock();
      // A datacyclotron.pin may stall here until its fragment's next ring
      // pass; it holds only the thread that runs it.
      Result<Datum> result = ExecInstruction(program.instructions[i], &local_args);
      lock.lock();
      if (!result.ok()) {
        if (!flow.failed) {
          flow.failed = true;
          flow.first_error = result.status();
        }
      } else {
        if (!program.instructions[i].ret.empty()) {
          vars_[program.instructions[i].ret] = std::move(result).value();
        }
        ++flow.completed;
        for (size_t d : dependents[i]) {
          if (--missing[d] == 0) flow.ready.push_back(d);
        }
        spawn_helpers();
      }
      flow.cv.notify_all();
    }
  };

  {
    std::unique_lock<std::mutex> lock(flow.mu);
    spawn_helpers();
    // The caller participates: a saturated executor degrades to sequential
    // execution on this thread instead of deadlocking the query.
    pump(lock);
    flow.cv.wait(lock, [&] {
      return flow.runners == 0 && (flow.failed || flow.completed == n);
    });
  }

  if (flow.failed) return flow.first_error;
  DCY_CHECK(flow.completed == n) << "dataflow execution stalled (cyclic dependencies?)";
  // Return the last assigned variable, matching sequential semantics.
  for (auto it = program.instructions.rbegin(); it != program.instructions.rend(); ++it) {
    if (!it->ret.empty()) return vars_[it->ret];
  }
  return Datum{};
}

}  // namespace dcy::mal
