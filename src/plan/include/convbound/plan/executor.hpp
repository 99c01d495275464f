// Runs ConvPlans against a reusable Workspace arena.
#pragma once

#include "convbound/plan/conv_plan.hpp"
#include "convbound/plan/workspace.hpp"

namespace convbound {

/// Stateless plan dispatch, the one place an algorithm meets its kernel:
/// runs plan.algorithm with plan.config / plan.e on `gpu`, writing into the
/// caller-shaped `out`. count_plan (conv_plan.hpp) is its closed-form twin.
LaunchStats run_plan(SimGpu& gpu, const ConvPlan& plan,
                     const Tensor4<float>& input,
                     const Tensor4<float>& weights, Tensor4<float>& out);

/// Executes plans with workspace-pooled outputs, so repeated executions
/// (inference passes, serving traffic) allocate nothing once the arena has
/// seen every plan geometry.
class ConvExecutor {
 public:
  explicit ConvExecutor(Workspace& workspace) : ws_(workspace) {}

  struct Execution {
    LaunchStats stats;
    /// Leased output; valid until the Execution (or the lease) is dropped.
    Workspace::Lease output;
  };

  /// Runs `plan`, leasing the output from the workspace.
  Execution execute(SimGpu& gpu, const ConvPlan& plan,
                    const Tensor4<float>& input,
                    const Tensor4<float>& weights);

  Workspace& workspace() { return ws_; }

 private:
  Workspace& ws_;
};

}  // namespace convbound
