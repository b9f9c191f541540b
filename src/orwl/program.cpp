#include "orwl/program.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "dist/registry.hpp"
#include "dist/remote.hpp"
#include "topo/membind.hpp"

namespace orwl {

/// Client sessions created by remote(), keyed by endpoint so several
/// names on one home share a connection.
struct Program::RemoteState {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<dist::Client>> clients;
};

Program::Program(std::size_t num_tasks, Options opts)
    : rt_(std::make_unique<rt::Program>(num_tasks, opts)),
      remote_(std::make_unique<RemoteState>()),
      links_(num_tasks),
      iterations_(num_tasks, 0),
      init_(num_tasks),
      bodies_(num_tasks) {}

Program::Program(Program&&) noexcept = default;
Program& Program::operator=(Program&&) noexcept = default;
Program::~Program() = default;

void Program::export_location(LocRef r, const std::string& name,
                              dist::Registry& reg) {
  reg.export_location(name, &location(r));
}

void Program::serve_exports(dist::Registry& reg) {
  for (const auto& [ref, name] : declared_exports_) {
    reg.export_location(name, &rt_->location(ref.task, ref.slot));
  }
}

rt::Location& Program::remote(const std::string& url) {
  const dist::Url u = dist::parse_url(url);
  if (u.name.empty()) {
    throw std::invalid_argument("Program::remote: URL \"" + url +
                                "\" names no location (missing /name)");
  }
  const std::string endpoint =
      u.mode == dist::DistMode::Shm
          ? "shm:" + u.shm_base
          : "tcp:" + u.host + ":" + std::to_string(u.port);
  std::lock_guard<std::mutex> lock(remote_->mu);
  auto& client = remote_->clients[endpoint];
  if (client == nullptr) client = dist::Client::connect(u);
  return client->attach(u.name);
}

void Program::set_task_body(TaskBody fn) {
  for (auto& b : bodies_) b = fn;
}

void Program::set_task_body(TaskId id, TaskBody fn) {
  if (id >= bodies_.size()) {
    throw std::out_of_range("set_task_body: bad task id");
  }
  bodies_[id] = std::move(fn);
}

std::size_t Program::iterations_of(TaskId id) const {
  if (id >= iterations_.size()) {
    throw std::out_of_range("iterations_of: bad task id");
  }
  return iterations_[id];
}

rt::Handle& Program::declared_handle(TaskId task, LocRef target,
                                     AccessMode mode,
                                     const std::type_info* type) {
  if (!declarative_) {
    throw std::logic_error(
        "read_link/write_link: imperative program — create links with "
        "Task::read()/Task::write() instead");
  }
  if (task >= links_.size()) {
    throw std::out_of_range("declared_handle: bad task id");
  }
  for (DeclaredLink& l : links_[task]) {
    if (l.target == target && l.mode == mode) {
      if (type != nullptr && l.type != nullptr && *l.type != *type) {
        throw std::logic_error(
            std::string("link lookup: the ") + to_string(mode) +
            " link of task " + std::to_string(task) + " on location (" +
            std::to_string(target.task) + ", " +
            std::to_string(target.slot) + ") was declared with type " +
            l.type->name() + ", requested " + type->name());
      }
      return *l.handle;
    }
  }
  throw std::logic_error(std::string("link lookup: task ") +
                         std::to_string(task) + " declared no " +
                         to_string(mode) + " link on location (" +
                         std::to_string(target.task) + ", " +
                         std::to_string(target.slot) + ")");
}

Program::FifoChannel& Program::channel_of(TaskId task, std::string_view name,
                                          const std::type_info* type,
                                          const char* what) {
  for (auto& ch : fifos_) {
    if (ch->name != name) continue;
    if (type != nullptr && ch->type != nullptr && *ch->type != *type) {
      throw std::logic_error(
          std::string(what) + ": channel \"" + ch->name +
          "\" was declared with item type " + ch->type->name() +
          ", requested " + type->name());
    }
    return *ch;
  }
  throw std::logic_error(std::string(what) + ": task " +
                         std::to_string(task) + " names unknown channel \"" +
                         std::string(name) + "\"");
}

rt::FifoProducer& Program::fifo_producer(TaskId task, std::string_view name,
                                         const std::type_info* type) {
  FifoChannel& ch = channel_of(task, name, type, "fifo_out");
  if (ch.producer != task) {
    throw std::logic_error("fifo_out: task " + std::to_string(task) +
                           " is not the producer of channel \"" + ch.name +
                           "\" (task " + std::to_string(ch.producer) +
                           " declared fifo_out on it)");
  }
  return ch.out;
}

rt::FifoConsumer& Program::fifo_consumer(TaskId task, std::string_view name,
                                         const std::type_info* type) {
  FifoChannel& ch = channel_of(task, name, type, "fifo_in");
  for (auto& c : ch.consumers) {
    if (c->task == task) return c->fifo;
  }
  throw std::logic_error("fifo_in: task " + std::to_string(task) +
                         " declared no fifo_in on channel \"" + ch.name +
                         "\"");
}

bool Program::fifo_participant(TaskId t) const noexcept {
  for (const auto& ch : fifos_) {
    if (ch->producer == t) return true;
    for (const auto& c : ch->consumers) {
      if (c->task == t) return true;
    }
  }
  return false;
}

double Program::reduce_iteration(double value, ReduceOp op) {
  Reducer& r = red_;
  rt_->rendezvous(
      "reduce_iteration",
      [&](std::size_t arrived_before) {
        if (arrived_before == 0) {
          // First arriver seeds the accumulator and fixes the
          // generation's combiner — no identity element needed, so
          // Min/Max work over any value range.
          r.acc = value;
          r.op = op;
          return;
        }
        if (op != r.op) {
          throw std::logic_error(
              "reduce_iteration: tasks disagree on the combiner within one "
              "generation");
        }
        switch (op) {
          case ReduceOp::Sum:
            r.acc += value;
            break;
          case ReduceOp::Min:
            r.acc = std::min(r.acc, value);
            break;
          case ReduceOp::Max:
            r.acc = std::max(r.acc, value);
            break;
        }
      },
      // The published value cannot be overwritten under a reader: the
      // next generation needs this task to arrive again.
      [&] { r.published = r.acc; });
  return r.published;
}

void Program::make_steal_executor() {
  const std::size_t n = num_tasks();
  const topo::Topology& topo = rt_->topology();
  const std::size_t npus = topo.num_pus();
  std::vector<rt::StealExecutor::WorkerSpec> specs(n);
  for (std::size_t t = 0; t < n; ++t) {
    int os = -1;
    if (rt_->have_placement() && t < rt_->placement().compute_pu.size()) {
      os = rt_->placement().compute_pu[t];
    }
    const topo::Object* pu = os >= 0 ? topo.pu_by_os_index(os) : nullptr;
    if (pu == nullptr && npus != 0) pu = topo.pu_at(static_cast<int>(t % npus));
    specs[t].pu = pu != nullptr ? pu->logical_index : 0;
    const topo::Object* node =
        pu != nullptr ? topo::numa_node_of(topo, pu->os_index) : nullptr;
    specs[t].node = node != nullptr ? node->logical_index : 0;
    specs[t].arena = &rt_->node_arena(static_cast<std::size_t>(specs[t].node));
  }
  rt::StealExecutor::Config cfg;
  cfg.mode = rt_->steal_mode();
  steal_ = std::make_unique<rt::StealExecutor>(topo, std::move(specs), cfg);
  // Steal traffic feeds the same measured matrix as lock hand-offs:
  // items flowing across nodes skew it and can trip ORWL_REPLACE (no-op
  // when the replace policy keeps no meter).
  steal_->set_meter(rt_->comm_meter(), n);
  rt::StealExecutor* ex = steal_.get();
  rt_->set_steal_stats_source([ex](rt::ProgramStats& ps) {
    const rt::StealExecutor::Stats s = ex->stats();
    ps.steal_executed = s.executed;
    ps.steal_local = s.local_steals;
    ps.steal_remote = s.remote_steals;
    ps.steal_parks = s.parks;
  });
}

void Program::for_each_impl(TaskId task, std::span<const std::uint64_t> seeds,
                            const ForEachBody& body) {
  // Adapt the typed body once per call; each task's worker runs its own
  // copy (bodies of one collective are functionally identical by
  // contract).
  rt::StealExecutor::ItemFn fn =
      [&body](std::uint64_t item, rt::StealExecutor::WorkerContext& wc) {
        StealContext sc(wc);
        body(item, sc);
      };

  // Entry rendezvous: every task seeds its OWN worker deque before any
  // worker starts — with all seeds pre-placed, root==0 during the run
  // can only mean "everything executed", which is what lets run_worker
  // exit without a global barrier.
  rt_->rendezvous(
      "for_each",
      [&](std::size_t) {
        if (!steal_) make_steal_executor();
        for (const std::uint64_t s : seeds) steal_->seed(task, s);
      },
      nullptr);

  steal_->run_worker(task, fn);

  // Exit rendezvous: a finished worker may not seed the NEXT collective
  // while a sibling of this one could still sweep (it would execute the
  // new item under the old body). The last one out rethrows the first
  // item failure to every task.
  rt_->rendezvous("for_each", nullptr, [&] {
    if (const std::exception_ptr e = steal_->take_error()) {
      std::rethrow_exception(e);
    }
  });
}

void Program::run() {
  const std::size_t n = bodies_.size();
  for (TaskId t = 0; t < n; ++t) {
    if (!declarative_ && !bodies_[t]) {
      throw std::logic_error("Program::run: task " + std::to_string(t) +
                             " has no body");
    }
    // A declarative task may run body-less only when it declared no
    // requests (barrier-only): otherwise its enqueued tickets — including
    // the ones backing its FIFO-channel endpoints — would sit
    // unacquired forever, stalling every later request on those
    // locations until the deadlock guard fires. Fail fast like v1 did.
    if (declarative_ && !bodies_[t] &&
        (!links_[t].empty() || fifo_participant(t))) {
      throw std::logic_error(
          "Program::run: declarative task " + std::to_string(t) +
          " declared location accesses but has no body — its requests "
          "would never be acquired");
    }
    const TaskBody user = bodies_[t];
    const TaskBody prologue = init_[t];
    if (declarative_) {
      // Declared links already carry the whole init phase: run the
      // optional init hook, pass the barrier, then hand the task its
      // post-schedule body.
      rt_->set_task_body(t, [this, user, prologue](rt::TaskContext& ctx) {
        Task task(*this, ctx);
        if (prologue) prologue(task);
        ctx.schedule();
        if (user) user(task);
      });
    } else {
      rt_->set_task_body(t, [this, user](rt::TaskContext& ctx) {
        Task task(*this, ctx);
        user(task);
      });
    }
  }
  rt_->run();
}

void Task::schedule() {
  if (prog_->declarative()) {
    throw std::logic_error(
        "Task::schedule: declarative bodies start after the schedule "
        "barrier — only imperative bodies call schedule()");
  }
  ctx_->schedule();
}

}  // namespace orwl
