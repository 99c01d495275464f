#include "convbound/ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "convbound/util/check.hpp"

namespace convbound {

namespace {

struct Split {
  int feature = -1;
  double threshold = 0;
  double gain = 0;
};

/// Per-node scratch of the split scan, sized for all n rows once per fit.
struct ScanBuffers {
  double* vals;    ///< the node's feature values in scan order
  double* prefix;  ///< prefix[k]: residual sum of the first k scanned rows
  double* gain;    ///< gain[k] of the cut before row k
  const double* ks;  ///< ks[k] == k, exactly
};

/// Best squared-error split of one node on one feature. `order` holds the
/// node's `count` rows in the feature's presorted order and `col` is the
/// feature's column. O(count): one gather pass builds the prefix sums, a
/// branch-free pass scores every cut, and a scan picks the best valid one.
Split best_split_on_feature(const double* col,
                            const std::vector<double>& residual,
                            const std::int32_t* order, std::int64_t count,
                            int feature, int min_leaf, const ScanBuffers& b) {
  Split best;
  // A constant feature has no two distinct values to split between.
  if (col[order[0]] == col[order[count - 1]]) return best;
  double sum = 0;
  b.prefix[0] = 0;
  for (std::int64_t k = 0; k < count; ++k) {
    const std::int32_t i = order[k];
    b.vals[k] = col[i];
    sum += residual[i];
    b.prefix[k + 1] = sum;
  }
  // The running sum ends at the node total, added in the same order.
  const double total = sum;
  const double n = b.ks[count];
  const double parent_score = total * total / n;

  // Cut k puts the first k scanned rows left; both children need min_leaf
  // rows. Every such cut is scored (a loop the compiler vectorises), then
  // the first strict maximum among the valid cuts — those *between*
  // distinct feature values — wins, as in a sequential scan.
  const std::int64_t lo = std::max<std::int64_t>(1, min_leaf);
  const std::int64_t hi = std::min(count, count - min_leaf + 1);
  for (std::int64_t k = lo; k < hi; ++k) {
    const double left_sum = b.prefix[k];
    const double right_sum = total - left_sum;
    b.gain[k] = left_sum * left_sum / b.ks[k] +
                right_sum * right_sum / (n - b.ks[k]) - parent_score;
  }
  std::int64_t best_k = -1;
  for (std::int64_t k = lo; k < hi; ++k) {
    if (b.gain[k] > best.gain && b.vals[k] != b.vals[k - 1]) {
      best.gain = b.gain[k];
      best_k = k;
    }
  }
  if (best_k >= 0) {
    best.feature = feature;
    best.threshold = (b.vals[best_k] + b.vals[best_k - 1]) / 2.0;
  }
  return best;
}

}  // namespace

/// Training buffers shared by every tree of one fit. `lists` holds d + 1
/// row-index lists of n entries each: list f < d is the rows in feature f's
/// presorted order, list d the rows in index order. A node owns the same
/// segment [begin, end) of every list, and a split stably partitions that
/// segment of each list into its two children, so every list keeps its own
/// order within every node.
struct Gbt::FitWork {
  std::size_t n = 0, d = 0;
  std::vector<double> cols;          ///< column-major X: cols[f * n + i]
  std::vector<std::int32_t> sorted;  ///< the d + 1 lists at the root
  std::vector<std::int32_t> lists;   ///< the same, partitioned per node
  std::vector<std::int32_t> spill;   ///< right-child scratch of a partition
  std::vector<std::uint8_t> left;    ///< per row: routed to the left child
  std::vector<double> vals, prefix, gain, ks;  ///< ScanBuffers storage
};

double Gbt::Tree::eval(const std::vector<double>& x) const {
  int n = 0;
  while (nodes[static_cast<std::size_t>(n)].feature >= 0) {
    const Node& nd = nodes[static_cast<std::size_t>(n)];
    n = x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                : nd.right;
  }
  return nodes[static_cast<std::size_t>(n)].value;
}

Gbt::Tree Gbt::fit_tree(FitWork& fw, const std::vector<double>& residual,
                        const GbtParams& params) const {
  Tree tree;
  const std::size_t n = fw.n;
  const std::size_t d = fw.d;
  fw.lists = fw.sorted;
  std::int32_t* const rows = fw.lists.data() + d * n;

  struct Work {
    int node;
    int depth;
    std::size_t begin, end;  // the node's segment of every list
  };
  std::vector<Work> stack;
  tree.nodes.emplace_back();
  stack.push_back({0, 0, 0, n});

  while (!stack.empty()) {
    const Work w = stack.back();
    stack.pop_back();
    const auto cnt = static_cast<std::int64_t>(w.end - w.begin);

    double sum = 0;
    for (std::size_t k = w.begin; k < w.end; ++k) sum += residual[rows[k]];
    Node& node = tree.nodes[static_cast<std::size_t>(w.node)];
    node.value = sum / (static_cast<double>(cnt) + params.lambda);

    // Fewer than two rows never split: there are no two distinct values.
    if (w.depth >= params.max_depth || cnt < 2 ||
        cnt < 2 * params.min_samples_leaf)
      continue;

    Split best;
    const ScanBuffers scan{fw.vals.data(), fw.prefix.data(), fw.gain.data(),
                           fw.ks.data()};
    for (std::size_t f = 0; f < d; ++f) {
      const Split s = best_split_on_feature(
          fw.cols.data() + f * n, residual, fw.lists.data() + f * n + w.begin,
          cnt, static_cast<int>(f), params.min_samples_leaf, scan);
      if (s.gain > best.gain) best = s;
    }
    if (best.feature < 0 || best.gain <= 1e-12) continue;

    node.feature = best.feature;
    node.threshold = best.threshold;
    const int li = static_cast<int>(tree.nodes.size());
    tree.nodes.emplace_back();
    tree.nodes.emplace_back();
    tree.nodes[static_cast<std::size_t>(w.node)].left = li;
    tree.nodes[static_cast<std::size_t>(w.node)].right = li + 1;

    const double* col =
        fw.cols.data() + static_cast<std::size_t>(best.feature) * n;
    std::size_t n_left = 0;
    for (std::size_t k = w.begin; k < w.end; ++k) {
      const bool l = col[rows[k]] <= best.threshold;
      fw.left[static_cast<std::size_t>(rows[k])] = l;
      n_left += l;
    }
    // Children at max_depth are leaves and read only the row list.
    const bool leaves = w.depth + 1 >= params.max_depth;
    for (std::size_t f = leaves ? d : 0; f <= d; ++f) {
      std::int32_t* list = fw.lists.data() + f * n;
      // Stable and branch-free: every row goes to both destinations and
      // only the one its flag selects advances (l <= k, so the in-place
      // write never clobbers an unread entry).
      std::size_t l = w.begin, r = 0;
      for (std::size_t k = w.begin; k < w.end; ++k) {
        const std::int32_t i = list[k];
        const std::size_t go_left = fw.left[static_cast<std::size_t>(i)];
        list[l] = i;
        fw.spill[r] = i;
        l += go_left;
        r += 1 - go_left;
      }
      std::copy(fw.spill.data(), fw.spill.data() + r, list + l);
    }
    const std::size_t mid = w.begin + n_left;
    stack.push_back({li, w.depth + 1, w.begin, mid});
    stack.push_back({li + 1, w.depth + 1, mid, w.end});
  }
  return tree;
}

void Gbt::fit(const std::vector<std::vector<double>>& X,
              const std::vector<double>& y, const GbtParams& params) {
  CB_CHECK_MSG(!X.empty() && X.size() == y.size(),
               "gbt: need non-empty, aligned X/y");
  arity_ = X[0].size();
  for (std::size_t i = 0; i < X.size(); ++i) {
    CB_CHECK_MSG(X[i].size() == arity_, "gbt: ragged feature matrix");
    // A NaN would break the presort's strict weak ordering.
    for (double v : X[i])
      CB_CHECK_MSG(std::isfinite(v), "gbt: non-finite feature in row " << i);
    CB_CHECK_MSG(std::isfinite(y[i]), "gbt: non-finite target in row " << i);
  }

  trees_.clear();
  learning_rate_ = params.learning_rate;
  base_ = std::accumulate(y.begin(), y.end(), 0.0) /
          static_cast<double>(y.size());
  base_set_ = true;

  FitWork fw;
  fw.n = X.size();
  fw.d = arity_;
  const std::size_t n = fw.n;
  fw.cols.resize(fw.d * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t f = 0; f < fw.d; ++f) fw.cols[f * n + i] = X[i][f];

  // Pre-sort row indices per feature once; the last list is row order.
  fw.sorted.resize((fw.d + 1) * n);
  for (std::size_t f = 0; f <= fw.d; ++f) {
    std::int32_t* idx = fw.sorted.data() + f * n;
    std::iota(idx, idx + n, 0);
    if (f == fw.d) continue;
    const double* col = fw.cols.data() + f * n;
    std::sort(idx, idx + n, [col](std::int32_t a, std::int32_t b) {
      return col[a] < col[b];
    });
  }
  fw.spill.resize(n);
  fw.left.resize(n);
  fw.vals.resize(n);
  fw.prefix.resize(n + 1);
  fw.gain.resize(n + 1);
  fw.ks.resize(n + 1);
  std::iota(fw.ks.begin(), fw.ks.end(), 0.0);

  std::vector<double> pred(y.size(), base_);
  std::vector<double> residual(y.size());
  for (int t = 0; t < params.num_trees; ++t) {
    for (std::size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];
    Tree tree = fit_tree(fw, residual, params);
    if (tree.nodes.size() == 1 && std::abs(tree.nodes[0].value) < 1e-15)
      break;  // nothing left to learn
    for (std::size_t i = 0; i < y.size(); ++i)
      pred[i] += learning_rate_ * tree.eval(X[i]);
    trees_.push_back(std::move(tree));
  }
}

double Gbt::predict(const std::vector<double>& x) const {
  CB_CHECK_MSG(base_set_, "gbt: predict before fit");
  CB_CHECK_MSG(x.size() == arity_, "gbt: feature arity mismatch");
  double p = base_;
  for (const auto& t : trees_) p += learning_rate_ * t.eval(x);
  return p;
}

}  // namespace convbound
