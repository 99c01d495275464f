#include <gtest/gtest.h>

#include <map>

#include "convbound/conv/reference.hpp"
#include "convbound/nets/inference.hpp"
#include "convbound/nets/models.hpp"
#include "convbound/plan/executor.hpp"

namespace convbound {
namespace {

TEST(Models, AllShapesValidate) {
  for (const auto& [name, layers] : model_zoo()) {
    EXPECT_FALSE(layers.empty()) << name;
    for (const auto& l : layers) {
      EXPECT_NO_THROW(l.shape.validate()) << name << "/" << l.name;
    }
  }
}

TEST(Models, AlexnetMatchesTable2Rows) {
  const auto layers = alexnet();
  ASSERT_GE(layers.size(), 4u);
  // conv1: 3 -> 96, 227, 11x11, stride 4, pad 0.
  EXPECT_EQ(layers[0].shape.cin, 3);
  EXPECT_EQ(layers[0].shape.hin, 227);
  EXPECT_EQ(layers[0].shape.cout, 96);
  EXPECT_EQ(layers[0].shape.kh, 11);
  EXPECT_EQ(layers[0].shape.stride, 4);
  // conv3: 256 -> 384, 13, 3x3, stride 1, pad 1.
  EXPECT_EQ(layers[2].shape.cin, 256);
  EXPECT_EQ(layers[2].shape.hin, 13);
  EXPECT_EQ(layers[2].shape.cout, 384);
}

TEST(Models, Vgg19HasSixteenConvs) {
  EXPECT_EQ(vgg19().size(), 16u);
}

TEST(Models, ResnetBlockCounts) {
  // ResNet-18: 1 stem + 8 blocks * 2 convs + 3 downsample 1x1 = 20.
  EXPECT_EQ(resnet18().size(), 20u);
  // ResNet-34: 1 + 16*2 + 3 = 36.
  EXPECT_EQ(resnet34().size(), 36u);
}

TEST(Models, ResnetChannelsChain) {
  // Within each stage, conv2's cin equals conv1's cout.
  for (const auto& model : {resnet18(), resnet34()}) {
    std::map<std::string, ConvShape> by_name;
    for (const auto& l : model) by_name[l.name] = l.shape;
    for (const auto& [name, s] : by_name) {
      if (name.find(".conv2") == std::string::npos) continue;
      const std::string conv1 = name.substr(0, name.size() - 1) + "1";
      ASSERT_TRUE(by_name.count(conv1)) << conv1;
      EXPECT_EQ(s.cin, by_name[conv1].cout) << name;
      EXPECT_EQ(s.hin, by_name[conv1].hout()) << name;
    }
  }
}

TEST(Models, FlopsOrdering) {
  // VGG-19 is by far the heaviest model of the zoo; SqueezeNet the lightest
  // of the >= 224px ones.
  const auto zoo = model_zoo();
  std::map<std::string, std::int64_t> flops;
  for (const auto& [name, layers] : zoo) flops[name] = model_flops(layers);
  EXPECT_GT(flops["Vgg-19"], flops["ResNet-34"]);
  EXPECT_GT(flops["ResNet-34"], flops["ResNet-18"]);
  EXPECT_GT(flops["ResNet-18"], flops["SqueezeNet"]);
}

TEST(Models, BatchPropagates) {
  for (const auto& l : alexnet(8)) EXPECT_EQ(l.shape.batch, 8);
}

// Synthetic 3-layer model to keep the tests fast.
std::vector<ConvLayer> tiny_stack() {
  std::vector<ConvLayer> layers;
  ConvShape s;
  s.cin = 8;
  s.hin = s.win = 16;
  s.cout = 16;
  s.kh = s.kw = 3;
  s.pad = 1;
  layers.push_back({"l1", s});
  s.cin = 16;
  layers.push_back({"l2", s});
  s.stride = 2;
  layers.push_back({"l3", s});
  return layers;
}

TEST(Inference, BaselineRunsTinyModel) {
  SimGpu gpu(MachineSpec::v100());
  const std::vector<ConvLayer> layers = tiny_stack();

  const ModelReport base =
      run_model(gpu, "tiny", layers, ModelStrategy::kBaseline);
  EXPECT_EQ(base.layers.size(), 3u);
  EXPECT_GT(base.total_seconds, 0);

  const ModelReport ours =
      run_model(gpu, "tiny", layers, ModelStrategy::kOursDefault);
  EXPECT_GT(ours.total_seconds, 0);
  // Our dataflows must not lose end-to-end on this conv stack.
  EXPECT_LT(ours.total_seconds, base.total_seconds * 1.2);
}

TEST(Inference, TunedAtLeastAsGoodAsDefault) {
  SimGpu gpu(MachineSpec::v100());
  std::vector<ConvLayer> layers;
  ConvShape s;
  s.cin = 16;
  s.hin = s.win = 14;
  s.cout = 32;
  s.kh = s.kw = 3;
  s.pad = 1;
  layers.push_back({"only", s});
  const ModelReport def =
      run_model(gpu, "m", layers, ModelStrategy::kOursDefault);
  const ModelReport tuned =
      run_model(gpu, "m", layers, ModelStrategy::kOursTuned, 24);
  EXPECT_LE(tuned.total_seconds, def.total_seconds * 1.05);
}

// run_model counts each plan; executing the same plan must report exactly
// the counted time and traffic, and compute the reference convolution.
void expect_report_matches_execution(SimGpu& gpu, const ModelReport& r) {
  for (const LayerTiming& l : r.layers) {
    const ConvProblem p = make_problem(l.shape, 7);
    Tensor4<float> out(l.shape.batch, l.shape.cout, l.shape.hout(),
                       l.shape.wout());
    const LaunchStats ex = run_plan(gpu, l.plan, p.input, p.weights, out);
    EXPECT_EQ(ex.sim_time, l.seconds) << r.model << "/" << l.name;
    EXPECT_EQ(ex.bytes_total(), l.io_bytes) << r.model << "/" << l.name;
    EXPECT_TRUE(allclose(conv2d_ref(p.input, p.weights, l.shape), out, 1e-3,
                         1e-3))
        << r.model << "/" << l.name << " via " << l.plan.to_string();
  }
}

TEST(Inference, CountedReportMatchesExecution) {
  SimGpu gpu(MachineSpec::v100());
  std::vector<ConvLayer> slice = mobilenet_v1();
  slice.resize(7);
  for (const auto& [name, layers] :
       {std::pair{"tiny", tiny_stack()}, std::pair{"mobilenet-slice", slice}}) {
    for (ModelStrategy strategy :
         {ModelStrategy::kBaseline, ModelStrategy::kOursDefault}) {
      const ModelReport r = run_model(gpu, name, layers, strategy);
      ASSERT_EQ(r.layers.size(), layers.size());
      expect_report_matches_execution(gpu, r);
    }
  }
  const std::vector<ConvLayer> one = {tiny_stack()[1]};
  const ModelReport tuned =
      run_model(gpu, "tuned", one, ModelStrategy::kOursTuned, 8);
  ASSERT_EQ(tuned.layers.size(), 1u);
  EXPECT_TRUE(tuned.layers[0].plan.tuned);
  expect_report_matches_execution(gpu, tuned);
}

}  // namespace
}  // namespace convbound
