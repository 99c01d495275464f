// convbound — I/O lower bounds and I/O-optimal auto-tuned convolutions.
//
// Umbrella header: reproduction of "I/O Lower Bounds for Auto-tuning of
// Convolutions in CNNs" (Zhang, Xiao, Tan — PPoPP 2021).
//
// Quickstart:
//   SimGpu gpu(MachineSpec::v100());
//   ConvShape s{.batch=1, .cin=256, .hin=56, .win=56, .cout=128};
//   auto p = make_problem(s, /*seed=*/1);
//   auto r = conv2d(gpu, p.input, p.weights, s);           // best algorithm
//   double q_min = direct_conv_lower_bound(s, gpu.spec().smem_floats());
#pragma once

#include "convbound/bounds/composite.hpp"
#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/bounds/matmul_bounds.hpp"
#include "convbound/cluster/cluster.hpp"
#include "convbound/conv/algorithms.hpp"
#include "convbound/conv/reference.hpp"
#include "convbound/gemm/gemm.hpp"
#include "convbound/machine/machine_spec.hpp"
#include "convbound/machine/sim_gpu.hpp"
#include "convbound/ml/gbt.hpp"
#include "convbound/nets/inference.hpp"
#include "convbound/obs/trace.hpp"
#include "convbound/nets/models.hpp"
#include "convbound/pebble/dag.hpp"
#include "convbound/pebble/game.hpp"
#include "convbound/pebble/generators.hpp"
#include "convbound/plan/conv_plan.hpp"
#include "convbound/plan/executor.hpp"
#include "convbound/plan/planner.hpp"
#include "convbound/plan/workspace.hpp"
#include "convbound/serve/batch_policy.hpp"
#include "convbound/serve/model.hpp"
#include "convbound/serve/server.hpp"
#include "convbound/tensor/conv_shape.hpp"
#include "convbound/tensor/tensor.hpp"
#include "convbound/tune/engine.hpp"
#include "convbound/tune/tuners.hpp"
#include "convbound/util/rng.hpp"
#include "convbound/util/table.hpp"

namespace convbound {

/// An executed convolution: the output tensor and the launch statistics.
struct ConvResult {
  Tensor4<float> output;
  LaunchStats stats;
};

/// Highest-level convenience: runs the best of our dataflows for `s` with
/// analytically derived default configurations (no tuning pass) and returns
/// the output plus execution statistics.
ConvResult conv2d(SimGpu& gpu, const Tensor4<float>& input,
                  const Tensor4<float>& weights, const ConvShape& s);

/// I/O lower bound (elements) for the better applicable algorithm on a
/// machine with fast memory S (elements): min over direct (Thm 4.12) and,
/// when applicable, Winograd with e = 2 (Thm 4.20).
double conv_lower_bound(const ConvShape& s, double S);

}  // namespace convbound
