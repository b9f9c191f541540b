// orwl/orwl.hpp — the one header applications include.
//
// The v2 public surface of the reproduction, layered over the rt::
// machinery (Sec. III/IV of the paper):
//
//   typed locations   Local<T> / Local<T[]>         (orwl/typed.hpp)
//   phase-safe guards ReadGuard / WriteGuard over
//                     ReadLink / WriteLink tokens   (orwl/guards.hpp)
//   programs + tasks  orwl::Program / orwl::Task    (orwl/program.hpp)
//   declarative graph orwl::ProgramBuilder          (orwl/builder.hpp)
//
// plus the v1 names applications commonly reach for — options, FIFO
// channels, topology fixtures and detection, the affinity reports —
// re-exported so that `#include "orwl/orwl.hpp"` is all an example, app
// or bench needs (no direct runtime/*.hpp includes outside src/).
#pragma once

#include "affinity/affinity.hpp"
#include "affinity/report.hpp"
#include "orwl/builder.hpp"
#include "orwl/fifo.hpp"
#include "orwl/guards.hpp"
#include "orwl/program.hpp"
#include "orwl/typed.hpp"
#include "runtime/fifo.hpp"
#include "runtime/handle.hpp"
#include "runtime/program.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/split.hpp"
#include "support/env.hpp"
#include "topo/detect.hpp"
#include "topo/machines.hpp"
#include "topo/membind.hpp"
#include "topo/serialize.hpp"
#include "treematch/strategies.hpp"

namespace orwl {

// Frequently used v1 names, promoted to the orwl:: namespace. The full
// v1 surface stays reachable under orwl::rt:: (and orwl::topo::,
// orwl::tm::, orwl::aff::) for white-box code.
using rt::AffinityMode;
using rt::FifoConsumer;
using rt::FifoProducer;
using rt::ProgramOptions;
using rt::ProgramStats;
using rt::split_range;

}  // namespace orwl
