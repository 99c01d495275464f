#include "convbound/pebble/generators.hpp"

#include <algorithm>
#include <vector>

#include "convbound/util/check.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

VertexId add_summation_tree(DagBuilder& b, std::span<const VertexId> inputs) {
  CB_CHECK(!inputs.empty());
  if (inputs.size() == 1) return inputs[0];
  VertexId acc = b.add_vertex({inputs[0], inputs[1]});
  for (std::size_t i = 2; i < inputs.size(); ++i)
    acc = b.add_vertex({acc, inputs[i]});
  return acc;
}

VertexId add_linear_combination_tree(DagBuilder& b,
                                     std::span<const VertexId> inputs) {
  CB_CHECK(!inputs.empty());
  std::vector<VertexId> scaled;
  scaled.reserve(inputs.size());
  for (VertexId v : inputs) scaled.push_back(b.add_vertex({v}));
  return add_summation_tree(b, scaled);
}

Dag direct_conv_dag(const ConvDagShape& s, const TileSpec& tile) {
  CB_CHECK(s.hout() > 0 && s.wout() > 0);
  DagBuilder b;

  // Global inputs: image and kernels.
  std::vector<VertexId> img(
      static_cast<std::size_t>(s.cin * s.hin * s.win));
  for (auto& v : img) v = b.add_input();
  auto img_at = [&](std::int64_t c, std::int64_t h, std::int64_t w) {
    return img[static_cast<std::size_t>((c * s.hin + h) * s.win + w)];
  };
  std::vector<VertexId> ker(
      static_cast<std::size_t>(s.cout * s.cin * s.ker * s.ker));
  for (auto& v : ker) v = b.add_input();
  auto ker_at = [&](std::int64_t oc, std::int64_t c, std::int64_t kh,
                    std::int64_t kw) {
    return ker[static_cast<std::size_t>(((oc * s.cin + c) * s.ker + kh) *
                                            s.ker +
                                        kw)];
  };

  const std::int64_t hout = s.hout(), wout = s.wout();
  const std::int64_t tx = std::min(tile.x, hout), ty = std::min(tile.y, wout),
                     tz = std::min(tile.z, s.cout);

  // Per output tile: slide a channel slice along C_in, accumulating partial
  // sums for every output in the tile (the Section 5.2 dataflow order).
  for (std::int64_t oc0 = 0; oc0 < s.cout; oc0 += tz) {
    for (std::int64_t oh0 = 0; oh0 < hout; oh0 += tx) {
      for (std::int64_t ow0 = 0; ow0 < wout; ow0 += ty) {
        const std::int64_t zc = std::min(tz, s.cout - oc0);
        const std::int64_t xh = std::min(tx, hout - oh0);
        const std::int64_t yw = std::min(ty, wout - ow0);
        // partial-sum vertex per output in the tile (invalid until first add)
        std::vector<VertexId> psum(static_cast<std::size_t>(zc * xh * yw));
        std::vector<std::int64_t> nprod(psum.size(), 0);
        for (std::int64_t c = 0; c < s.cin; ++c) {
          for (std::int64_t dz = 0; dz < zc; ++dz) {
            for (std::int64_t dx = 0; dx < xh; ++dx) {
              for (std::int64_t dy = 0; dy < yw; ++dy) {
                const std::int64_t oc = oc0 + dz, oh = oh0 + dx,
                                   ow = ow0 + dy;
                const auto pi =
                    static_cast<std::size_t>((dz * xh + dx) * yw + dy);
                for (std::int64_t kh = 0; kh < s.ker; ++kh) {
                  for (std::int64_t kw = 0; kw < s.ker; ++kw) {
                    const VertexId prod = b.add_vertex(
                        {img_at(c, oh * s.stride + kh, ow * s.stride + kw),
                         ker_at(oc, c, kh, kw)});
                    // Left-deep summation chain over all products.
                    psum[pi] = (nprod[pi] == 0)
                                   ? prod
                                   : b.add_vertex({psum[pi], prod});
                    ++nprod[pi];
                  }
                }
              }
            }
          }
        }
        for (std::size_t pi = 0; pi < psum.size(); ++pi)
          b.mark_output(psum[pi]);
      }
    }
  }
  return b.build();
}

namespace {

/// Adds the transformed-tensor vertices for one channel plane: `n_out`
/// linear-combination trees, each reading all of `plane_inputs`.
std::vector<VertexId> add_transform_plane(DagBuilder& b,
                                          std::span<const VertexId> plane,
                                          std::int64_t n_out) {
  std::vector<VertexId> out;
  out.reserve(static_cast<std::size_t>(n_out));
  for (std::int64_t i = 0; i < n_out; ++i)
    out.push_back(add_linear_combination_tree(b, plane));
  return out;
}

}  // namespace

Dag winograd_dag(const WinogradDagShape& s, WinogradOrder order) {
  const std::int64_t a = s.alpha();        // e + r - 1
  const std::int64_t a2 = a * a;
  const std::int64_t r2 = s.r * s.r;
  const std::int64_t e2 = s.e * s.e;
  const std::int64_t ntiles = s.tiles_h * s.tiles_w;
  DagBuilder b;

  // Inputs: image (cin x hin x win) and kernels (cout x cin x r x r).
  std::vector<VertexId> img(
      static_cast<std::size_t>(s.cin * s.hin() * s.win()));
  for (auto& v : img) v = b.add_input();
  auto img_at = [&](std::int64_t c, std::int64_t h, std::int64_t w) {
    return img[static_cast<std::size_t>((c * s.hin() + h) * s.win() + w)];
  };
  std::vector<VertexId> ker(
      static_cast<std::size_t>(s.cout * s.cin * r2));
  for (auto& v : ker) v = b.add_input();

  // Caches of transformed tensors (created lazily in fused order).
  // P[tile][c] -> a2 vertex ids; J[k][c] -> a2 vertex ids.
  std::vector<std::vector<VertexId>> P(
      static_cast<std::size_t>(ntiles * s.cin));
  std::vector<std::vector<VertexId>> J(
      static_cast<std::size_t>(s.cout * s.cin));

  auto input_plane = [&](std::int64_t t, std::int64_t c) {
    const std::int64_t th = t / s.tiles_w, tw = t % s.tiles_w;
    std::vector<VertexId> plane;
    plane.reserve(static_cast<std::size_t>(a2));
    for (std::int64_t i = 0; i < a; ++i)
      for (std::int64_t j = 0; j < a; ++j)
        plane.push_back(img_at(c, th * s.e + i, tw * s.e + j));
    return plane;
  };
  auto kernel_plane = [&](std::int64_t k, std::int64_t c) {
    std::vector<VertexId> plane;
    plane.reserve(static_cast<std::size_t>(r2));
    for (std::int64_t i = 0; i < r2; ++i)
      plane.push_back(
          ker[static_cast<std::size_t>((k * s.cin + c) * r2 + i)]);
    return plane;
  };
  auto ensure_P = [&](std::int64_t t, std::int64_t c) -> const auto& {
    auto& slot = P[static_cast<std::size_t>(t * s.cin + c)];
    if (slot.empty()) {
      auto plane = input_plane(t, c);
      slot = add_transform_plane(b, plane, a2);
    }
    return slot;
  };
  auto ensure_J = [&](std::int64_t k, std::int64_t c) -> const auto& {
    auto& slot = J[static_cast<std::size_t>(k * s.cin + c)];
    if (slot.empty()) {
      auto plane = kernel_plane(k, c);
      slot = add_transform_plane(b, plane, a2);
    }
    return slot;
  };

  if (order == WinogradOrder::kPhased) {
    // Step 1 fully materialised first (cuDNN-style batched transforms).
    for (std::int64_t t = 0; t < ntiles; ++t)
      for (std::int64_t c = 0; c < s.cin; ++c) ensure_P(t, c);
    for (std::int64_t k = 0; k < s.cout; ++k)
      for (std::int64_t c = 0; c < s.cin; ++c) ensure_J(k, c);
  }

  // Steps 2-4 per (tile, output channel); in fused order the transforms are
  // created on first use right here.
  for (std::int64_t k = 0; k < s.cout; ++k) {
    for (std::int64_t t = 0; t < ntiles; ++t) {
      // Step 3 accumulator: running partial sums of Pi (paper's two
      // temporary arrays) — a2 chains over the channel direction.
      std::vector<VertexId> pi_acc(static_cast<std::size_t>(a2));
      for (std::int64_t c = 0; c < s.cin; ++c) {
        const auto& Ptc = ensure_P(t, c);
        const auto& Jkc = ensure_J(k, c);
        for (std::int64_t i = 0; i < a2; ++i) {
          // Step 2: element-wise product Lambda.
          const VertexId lam = b.add_vertex(
              {Ptc[static_cast<std::size_t>(i)],
               Jkc[static_cast<std::size_t>(i)]});
          // Step 3: summation along channels.
          pi_acc[static_cast<std::size_t>(i)] =
              (c == 0) ? lam
                       : b.add_vertex(
                             {pi_acc[static_cast<std::size_t>(i)], lam});
        }
      }
      // Step 4: e2 outputs, each a linear combination of all a2 Pi values.
      for (std::int64_t o = 0; o < e2; ++o) {
        const VertexId out = add_linear_combination_tree(b, pi_acc);
        b.mark_output(out);
      }
    }
  }
  return b.build();
}

Dag matmul_dag(std::int64_t m, std::int64_t k, std::int64_t n,
               std::int64_t tile_m, std::int64_t tile_n) {
  DagBuilder b;
  std::vector<VertexId> A(static_cast<std::size_t>(m * k)),
      B(static_cast<std::size_t>(k * n));
  for (auto& v : A) v = b.add_input();
  for (auto& v : B) v = b.add_input();
  tile_m = std::min(tile_m, m);
  tile_n = std::min(tile_n, n);

  for (std::int64_t i0 = 0; i0 < m; i0 += tile_m) {
    for (std::int64_t j0 = 0; j0 < n; j0 += tile_n) {
      const std::int64_t im = std::min(tile_m, m - i0);
      const std::int64_t jn = std::min(tile_n, n - j0);
      std::vector<VertexId> acc(static_cast<std::size_t>(im * jn));
      for (std::int64_t p = 0; p < k; ++p) {
        for (std::int64_t di = 0; di < im; ++di) {
          for (std::int64_t dj = 0; dj < jn; ++dj) {
            const VertexId prod = b.add_vertex(
                {A[static_cast<std::size_t>((i0 + di) * k + p)],
                 B[static_cast<std::size_t>(p * n + j0 + dj)]});
            auto& slot = acc[static_cast<std::size_t>(di * jn + dj)];
            slot = (p == 0) ? prod : b.add_vertex({slot, prod});
          }
        }
      }
      for (VertexId v : acc) b.mark_output(v);
    }
  }
  return b.build();
}

}  // namespace convbound
