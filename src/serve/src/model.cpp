#include "convbound/serve/model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "convbound/conv/reference.hpp"
#include "convbound/util/check.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {

namespace {

// Seed for every served model's fixed weights.
constexpr std::uint64_t kWeightSeed = 42;

std::int64_t cap_channels(std::int64_t c, std::int64_t groups,
                          std::int64_t cap) {
  if (cap <= 0 || c <= cap) return c;
  return std::max(groups, cap / groups * groups);
}

ConvShape scaled_shape(ConvShape s, const ServedModelOptions& opts) {
  const bool depthwise = s.groups == s.cin && s.groups == s.cout;
  if (depthwise) {
    if (opts.channel_cap > 0) {
      const std::int64_t c = std::min(s.cin, opts.channel_cap);
      s.cin = s.cout = s.groups = c;
    }
  } else {
    s.cin = cap_channels(s.cin, s.groups, opts.channel_cap);
    s.cout = cap_channels(s.cout, s.groups, opts.channel_cap);
  }
  if (opts.spatial_cap > 0) {
    s.hin = std::min(s.hin, opts.spatial_cap);
    s.win = std::min(s.win, opts.spatial_cap);
  }
  // Keep the padded image at least one kernel wide.
  s.hin = std::max(s.hin, s.kh - 2 * s.pad);
  s.win = std::max(s.win, s.kw - 2 * s.pad);
  s.validate();
  return s;
}

}  // namespace

ServedModel make_served_model(const std::string& name,
                              std::vector<ConvLayer> layers,
                              const ServedModelOptions& opts) {
  CB_CHECK_MSG(!layers.empty(), "served model '" << name << "' has no layers");
  if (opts.max_layers > 0 && layers.size() > opts.max_layers)
    layers.resize(opts.max_layers);

  ServedModel m;
  m.name = name;
  m.layers.reserve(layers.size());
  m.weights.reserve(layers.size());
  for (auto& layer : layers) {
    ConvLayer scaled{layer.name, scaled_shape(layer.shape, opts)};
    scaled.shape.batch = 1;
    // Weights are generated at the batch-1 geometry, so they are identical
    // whichever batch bucket later executes the layer.
    const ConvProblem p = make_problem(
        scaled.shape, kWeightSeed ^ std::hash<std::string>{}(layer.name));
    m.weights.push_back(p.weights);
    m.layers.push_back(std::move(scaled));
  }
  return m;
}

ConvShape shape_at_batch(ConvShape shape, std::int64_t batch) {
  CB_CHECK_MSG(batch > 0, "batch bucket must be positive");
  shape.batch = batch;
  shape.validate();
  return shape;
}

void adapt_activation(const Tensor4<float>& prev, Tensor4<float>& out) {
  CB_CHECK_MSG(prev.n() == out.n(),
               "adapter must preserve the batch dimension");
  for (std::int64_t n = 0; n < out.n(); ++n)
    for (std::int64_t c = 0; c < out.c(); ++c)
      for (std::int64_t h = 0; h < out.h(); ++h)
        for (std::int64_t w = 0; w < out.w(); ++w) {
          const float v = prev(n, c % prev.c(), h * prev.h() / out.h(),
                               w * prev.w() / out.w());
          out(n, c, h, w) = v / (1.0f + std::abs(v));  // softsign
        }
}

Tensor4<float> make_request_input(const ServedModel& model,
                                  std::uint64_t seed) {
  Tensor4<float> in(1, model.input_c(), model.input_h(), model.input_w());
  Rng rng(seed);
  in.fill_random(rng);
  return in;
}

std::map<std::string, ServedModel> index_models(
    std::vector<ServedModel> models) {
  CB_CHECK_MSG(!models.empty(), "serving needs at least one model");
  std::map<std::string, ServedModel> out;
  for (auto& m : models) {
    const std::string name = m.name;
    // Construction-time validation: a malformed model must fail the server
    // constructor loudly, not surface as a crash in warm() or a batch.
    CB_CHECK_MSG(!name.empty(), "served model with an empty name");
    CB_CHECK_MSG(!m.layers.empty(),
                 "served model '" << name << "' has no layers");
    CB_CHECK_MSG(m.weights.size() == m.layers.size(),
                 "served model '" << name << "' has " << m.layers.size()
                                  << " layers but " << m.weights.size()
                                  << " weight tensors");
    for (const ConvLayer& layer : m.layers) layer.shape.validate();
    CB_CHECK_MSG(out.emplace(name, std::move(m)).second,
                 "duplicate served model '" << name << "'");
  }
  return out;
}

const ServedModel& validate_request(
    const std::map<std::string, ServedModel>& models,
    const InferRequest& request) {
  const auto it = models.find(request.model);
  CB_CHECK_MSG(it != models.end(),
               "unknown served model '" << request.model << "'");
  const ServedModel& m = it->second;
  CB_CHECK_MSG(request.input.n() == 1 && request.input.c() == m.input_c() &&
                   request.input.h() == m.input_h() &&
                   request.input.w() == m.input_w() &&
                   request.input.layout() == Layout::kNCHW,
               "request input must be [1, " << m.input_c() << ", "
                                            << m.input_h() << ", "
                                            << m.input_w() << "] NCHW");
  return m;
}

Tensor4<float> reference_run(const ServedModel& model,
                             const Tensor4<float>& input) {
  CB_CHECK_MSG(input.c() == model.input_c() && input.h() == model.input_h() &&
                   input.w() == model.input_w(),
               "input geometry does not match model '" << model.name << "'");
  Tensor4<float> cur = input;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const ConvShape s = shape_at_batch(model.layers[i].shape, cur.n());
    Tensor4<float> out = conv2d_ref(cur, model.weights[i], s);
    if (i + 1 == model.layers.size()) return out;
    const ConvShape& next = model.layers[i + 1].shape;
    Tensor4<float> adapted(cur.n(), next.cin, next.hin, next.win);
    adapt_activation(out, adapted);
    cur = std::move(adapted);
  }
  return cur;  // unreachable (layers is non-empty)
}

}  // namespace convbound
