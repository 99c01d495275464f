// Gradient-boosted regression trees, built from scratch.
//
// Stands in for the XGBoost cost model of the paper's auto-tuning engine
// (Section 6.1): squared-error boosting with depth-limited greedy trees and
// L2 leaf regularisation. Training sets are small (hundreds to a few
// thousand configurations), so exact sorted-scan split search is used
// instead of histograms.
//
// The split search is XGBoost's exact greedy algorithm (Chen & Guestrin,
// KDD 2016): a fit presorts the row indices of each feature once, and every
// split stably partitions each presorted list (and a row-order list) into
// its two children. A node then scans only its own rows, in its features'
// sorted order, so one tree level reads n·d list entries and a tree costs
// O(depth·n·d) after the one O(d·n log n) presort. A feature constant over
// a node is skipped; it has no split. Sums run in the same order as a scan
// of the whole presorted list would visit the node's rows, so the model
// does not depend on how the rows are partitioned.
//
// The inner loops carry no data-dependent branches: per feature, one pass
// gathers the node's values and prefix sums of its residuals, a second
// scores every cut with one expression (a loop the compiler vectorises),
// and a scan takes the first strict maximum among cuts between distinct
// values; the stable partition writes each row to both children's
// destinations and advances the one its flag selects. Every sum, gain and
// tie-break is the one a sequential per-cut scan computes, so the fitted
// models are bit-identical to it (ml_test's Gbt.FitIsPinned).
#pragma once

#include <cstdint>
#include <vector>

namespace convbound {

struct GbtParams {
  int num_trees = 64;
  int max_depth = 5;
  double learning_rate = 0.15;
  double lambda = 1.0;        ///< L2 regularisation on leaf values
  int min_samples_leaf = 2;   ///< no split producing a smaller child
};

/// A boosted ensemble fit on (feature vector -> scalar target) pairs.
class Gbt {
 public:
  /// Trains from scratch (drops any previous model). All rows must share
  /// the same feature arity. Throws on empty or ragged input, and on a
  /// non-finite feature or target.
  void fit(const std::vector<std::vector<double>>& X,
           const std::vector<double>& y, const GbtParams& params = {});

  bool trained() const { return !trees_.empty() || base_set_; }

  double predict(const std::vector<double>& x) const;

 private:
  struct Node {
    // Leaf when feature < 0.
    int feature = -1;
    double threshold = 0;
    double value = 0;
    int left = -1, right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double eval(const std::vector<double>& x) const;
  };

  struct FitWork;  // column-major X and the node-partitioned row lists
  Tree fit_tree(FitWork& fw, const std::vector<double>& residual,
                const GbtParams& params) const;

  std::vector<Tree> trees_;
  double base_ = 0;
  double learning_rate_ = 0.1;
  bool base_set_ = false;
  std::size_t arity_ = 0;
};

}  // namespace convbound
