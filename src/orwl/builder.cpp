#include "orwl/builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "affinity/affinity.hpp"
#include "runtime/graph.hpp"

namespace orwl {

ProgramBuilder::ProgramBuilder(std::size_t num_tasks, Options opts)
    : opts_(opts), specs_(num_tasks) {
  if (num_tasks == 0) {
    throw std::invalid_argument("ProgramBuilder: at least one task");
  }
}

TaskSpec& ProgramBuilder::task(TaskId t) {
  if (t >= specs_.size()) {
    throw std::out_of_range("ProgramBuilder::task: bad task id");
  }
  return specs_[t];
}

ProgramBuilder& ProgramBuilder::body(TaskBody fn) {
  spmd_body_ = std::move(fn);
  return *this;
}

ProgramBuilder& ProgramBuilder::export_location(LocRef r, std::string name) {
  if (name.empty()) {
    throw std::invalid_argument(
        "ProgramBuilder::export_location: empty name");
  }
  if (r.task >= specs_.size()) {
    throw std::out_of_range(
        "ProgramBuilder::export_location: export names task " +
        std::to_string(r.task) + " of " + std::to_string(specs_.size()));
  }
  for (const auto& [ref, seen] : exports_) {
    if (seen == name) {
      throw std::invalid_argument(
          "ProgramBuilder::export_location: name \"" + name +
          "\" exported twice");
    }
  }
  exports_.emplace_back(r, std::move(name));
  return *this;
}

ProgramBuilder::Plan ProgramBuilder::make_plan() const {
  Plan plan;

  // The slot space comes from the declarations: owned slots size it, and
  // access targets extend it so a link to an (unsized) foreign slot still
  // resolves to a real location.
  std::size_t slots = 1;
  for (TaskId t = 0; t < specs_.size(); ++t) {
    for (const TaskSpec::OwnDecl& o : specs_[t].owns_) {
      slots = std::max(slots, o.slot + 1);
    }
    const std::vector<TaskSpec::AccessDecl>& acc = specs_[t].accesses_;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      const LocRef target = acc[i].target;
      if (target.task >= specs_.size()) {
        throw std::out_of_range("ProgramBuilder: access target names task " +
                                std::to_string(target.task) + " of " +
                                std::to_string(specs_.size()));
      }
      // Bodies look links up by (location, mode): a second same-mode
      // link of one task on one location would be unreachable — its
      // granted request never acquired, stalling the location's FIFO.
      // Reject the ambiguity at declaration time.
      for (std::size_t j = 0; j < i; ++j) {
        if (acc[j].target == target && acc[j].mode == acc[i].mode) {
          throw std::logic_error(
              "ProgramBuilder: task " + std::to_string(t) + " declares two " +
              to_string(acc[i].mode) + " links on location (" +
              std::to_string(target.task) + ", " +
              std::to_string(target.slot) +
              ") — bodies could only ever reach the first");
        }
      }
      slots = std::max(slots, target.slot + 1);
    }
  }
  for (const auto& [ref, name] : exports_) {
    slots = std::max(slots, ref.slot + 1);
  }

  // FIFO channels ride above the declared slot space: each channel gets
  // `depth` consecutive slots of its producer task, starting past every
  // slot named by owns()/reads()/writes(). Only the producer's slots in
  // a channel's range carry buffers; the same range on other tasks stays
  // an empty (harmless) location.
  std::size_t next_slot = slots;
  for (TaskId t = 0; t < specs_.size(); ++t) {
    for (const TaskSpec::FifoOutDecl& f : specs_[t].fifo_outs_) {
      if (f.depth < 2) {
        throw std::invalid_argument(
            "ProgramBuilder: channel \"" + f.name +
            "\" needs depth >= 2 (one slot cannot alternate)");
      }
      if (f.bytes == 0) {
        throw std::invalid_argument("ProgramBuilder: channel \"" + f.name +
                                    "\" declares zero-byte items");
      }
      for (const Plan::Channel& seen : plan.channels) {
        if (seen.decl->name == f.name) {
          throw std::logic_error(
              "ProgramBuilder: channel \"" + f.name +
              "\" declared twice (tasks " + std::to_string(seen.producer) +
              " and " + std::to_string(t) + ")");
        }
      }
      plan.channels.push_back(Plan::Channel{t, &f, next_slot, {}});
      next_slot += f.depth;
    }
  }
  plan.locations_per_task = next_slot;

  for (TaskId t = 0; t < specs_.size(); ++t) {
    for (const TaskSpec::FifoInDecl& fin : specs_[t].fifo_ins_) {
      auto ch = std::find_if(
          plan.channels.begin(), plan.channels.end(),
          [&](const Plan::Channel& c) { return c.decl->name == fin.name; });
      if (ch == plan.channels.end()) {
        throw std::logic_error("ProgramBuilder: task " + std::to_string(t) +
                               " consumes undeclared channel \"" + fin.name +
                               "\" (no task declared fifo_out on it)");
      }
      if (ch->producer == t) {
        throw std::logic_error("ProgramBuilder: task " + std::to_string(t) +
                               " consumes its own channel \"" + fin.name +
                               "\"");
      }
      const std::type_info* type = ch->decl->type;
      if (fin.type != nullptr && type != nullptr && *fin.type != *type) {
        throw std::logic_error(
            "ProgramBuilder: channel \"" + fin.name +
            "\" carries items of type " + type->name() + "; task " +
            std::to_string(t) + " consumes it as " + fin.type->name());
      }
      if (std::find(ch->consumers.begin(), ch->consumers.end(), t) !=
          ch->consumers.end()) {
        throw std::logic_error("ProgramBuilder: task " + std::to_string(t) +
                               " declares fifo_in twice on channel \"" +
                               fin.name + "\"");
      }
      ch->consumers.push_back(t);
    }
  }
  return plan;
}

tm::CommMatrix ProgramBuilder::comm_matrix() const {
  const Plan plan = make_plan();
  const std::size_t per_task = plan.locations_per_task;
  rt::TaskGraph g;
  g.num_tasks = specs_.size();
  g.locations_per_task = per_task;
  g.locations.resize(specs_.size() * per_task);
  for (std::size_t id = 0; id < g.locations.size(); ++id) {
    g.locations[id].id = id;
    g.locations[id].owner = id / per_task;
  }
  // Same location ids, sizes and access sets as the runtime records for
  // build() — so the matrix matches the built program's cell for cell.
  const auto at = [&](TaskId task, std::size_t slot) -> rt::LocationInfo& {
    return g.locations[task * per_task + slot];
  };
  for (TaskId t = 0; t < specs_.size(); ++t) {
    for (const TaskSpec::OwnDecl& o : specs_[t].owns_) {
      at(t, o.slot).bytes = o.bytes;
    }
    for (const TaskSpec::AccessDecl& a : specs_[t].accesses_) {
      at(a.target.task, a.target.slot)
          .accesses.push_back(rt::Access{t, a.mode, a.priority});
    }
  }
  for (const Plan::Channel& ch : plan.channels) {
    for (std::size_t s = 0; s < ch.decl->depth; ++s) {
      rt::LocationInfo& l = at(ch.producer, ch.first_slot + s);
      l.bytes = ch.decl->bytes;
      l.accesses.push_back(rt::Access{ch.producer, AccessMode::Write, 0});
      for (const TaskId c : ch.consumers) {
        l.accesses.push_back(rt::Access{c, AccessMode::Read, 1});
      }
    }
  }
  return aff::comm_matrix_from_graph(g);
}

Program ProgramBuilder::build() {
  if (built_) {
    throw std::logic_error("ProgramBuilder::build: already built");
  }
  const Plan plan = make_plan();
  built_ = true;
  opts_.locations_per_task = plan.locations_per_task;

  Program p(specs_.size(), opts_);
  p.declarative_ = true;
  p.declared_exports_ = exports_;

  // Scale the owned locations first (sizes precede links, exactly like
  // the Listing 1 init phase).
  for (TaskId t = 0; t < specs_.size(); ++t) {
    const TaskSpec& spec = specs_[t];
    for (const TaskSpec::OwnDecl& o : spec.owns_) {
      p.rt_->location(t, o.slot).scale(o.bytes);
    }
    p.iterations_[t] = spec.iterations_;
    p.init_[t] = spec.init_;
    if (spec.for_each_item_) {
      // Synthesized dynamic-work body: seed, then join the collective.
      const SeedsFn seeds = spec.for_each_seeds_;
      const ForEachBody item = spec.for_each_item_;
      p.bodies_[t] = [seeds, item](Task& task) {
        std::vector<std::uint64_t> s;
        if (seeds) s = seeds(task);
        task.for_each(s, item);
      };
    } else {
      p.bodies_[t] = spec.body_ ? spec.body_ : spmd_body_;
    }
  }

  // Pre-register every declared access: the runtime's task-location
  // graph is complete from here on — dependency_get()/affinity_compute()
  // work without running a single body.
  for (TaskId t = 0; t < specs_.size(); ++t) {
    for (const TaskSpec::AccessDecl& a : specs_[t].accesses_) {
      auto handle = std::make_unique<rt::Handle2>();
      p.rt_->declare_insert(t,
                            p.rt_->location(a.target.task, a.target.slot),
                            a.mode, a.priority, *handle);
      p.links_[t].push_back(Program::DeclaredLink{a.target, a.mode, a.type,
                                                  std::move(handle)});
    }
  }

  // Materialize the channels: scale the producer-owned ring slots,
  // pre-register the producer's write handles (priority 0) and every
  // consumer's read handles (priority 1), and hand the rings to the rt
  // endpoints the bodies will drive.
  for (const Plan::Channel& pc : plan.channels) {
    auto ch = std::make_unique<Program::FifoChannel>();
    ch->name = pc.decl->name;
    ch->producer = pc.producer;
    ch->first_slot = pc.first_slot;
    ch->depth = pc.decl->depth;
    ch->bytes = pc.decl->bytes;
    ch->type = pc.decl->type;
    std::vector<rt::Handle2*> ring;
    for (std::size_t s = 0; s < ch->depth; ++s) {
      rt::Location& l = p.rt_->location(ch->producer, ch->first_slot + s);
      l.scale(ch->bytes);
      auto h = std::make_unique<rt::Handle2>();
      p.rt_->declare_insert(ch->producer, l, AccessMode::Write,
                            /*priority=*/0, *h);
      ring.push_back(h.get());
      ch->producer_handles.push_back(std::move(h));
    }
    ch->out.adopt(std::move(ring));
    for (const TaskId c : pc.consumers) {
      auto end = std::make_unique<Program::FifoConsumerEnd>();
      end->task = c;
      std::vector<rt::Handle2*> reads;
      for (std::size_t s = 0; s < ch->depth; ++s) {
        rt::Location& l = p.rt_->location(ch->producer, ch->first_slot + s);
        auto h = std::make_unique<rt::Handle2>();
        p.rt_->declare_insert(c, l, AccessMode::Read, /*priority=*/1, *h);
        reads.push_back(h.get());
        end->handles.push_back(std::move(h));
      }
      end->fifo.adopt(std::move(reads));
      ch->consumers.push_back(std::move(end));
    }
    p.fifos_.push_back(std::move(ch));
  }
  return p;
}

}  // namespace orwl
