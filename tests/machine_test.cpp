#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "convbound/machine/machine_spec.hpp"
#include "convbound/machine/sim_gpu.hpp"

namespace convbound {
namespace {

TEST(SharedMemory, AllocatesWithinCapacity) {
  SharedMemory smem(1024);
  auto a = smem.alloc<float>(128);  // 512 B
  EXPECT_EQ(a.size(), 128u);
  auto b = smem.alloc<float>(128);  // another 512 B
  EXPECT_EQ(b.size(), 128u);
  // Both allocations fill the 1024 B exactly: one more float overflows.
  EXPECT_THROW(smem.alloc<float>(1), Error);
}

TEST(SharedMemory, OverflowThrows) {
  SharedMemory smem(1024);
  smem.alloc<float>(200);
  EXPECT_THROW(smem.alloc<float>(100), Error);
}

TEST(SharedMemory, ResetReclaims) {
  SharedMemory smem(64);
  smem.alloc<float>(16);
  smem.reset();
  EXPECT_NO_THROW(smem.alloc<float>(16));
}

TEST(MachineSpec, PresetsAreDistinctAndSane) {
  for (const auto& spec :
       {MachineSpec::gtx1080ti(), MachineSpec::titan_x(), MachineSpec::v100(),
        MachineSpec::gfx906()}) {
    EXPECT_GT(spec.num_sms, 0);
    EXPECT_GT(spec.global_bw, 0);
    EXPECT_GT(spec.peak_flops, 0);
    EXPECT_GT(spec.smem_floats(), 0);
  }
  EXPECT_GT(MachineSpec::v100().peak_flops,
            MachineSpec::titan_x().peak_flops);
}

TEST(ModelTime, MemoryBoundScalesWithBytes) {
  const auto spec = MachineSpec::v100();
  LaunchConfig cfg;
  cfg.num_blocks = 1000;
  cfg.threads_per_block = 256;
  const double t1 = model_time(spec, cfg, 1'000'000'000, 1000);
  const double t2 = model_time(spec, cfg, 2'000'000'000, 1000);
  EXPECT_GT(t2, t1 * 1.8);
}

TEST(ModelTime, ComputeBoundScalesWithFlops) {
  const auto spec = MachineSpec::v100();
  LaunchConfig cfg;
  cfg.num_blocks = 1000;
  cfg.threads_per_block = 256;
  const double t1 = model_time(spec, cfg, 1000, 4'000'000'000'000ull);
  const double t2 = model_time(spec, cfg, 1000, 8'000'000'000'000ull);
  EXPECT_GT(t2, t1 * 1.8);
}

TEST(ModelTime, MoreBlocksHideWaveQuantisation) {
  const auto spec = MachineSpec::v100();
  LaunchConfig few, many;
  few.num_blocks = 4;        // far fewer than 80 SMs
  many.num_blocks = 8000;
  few.threads_per_block = many.threads_per_block = 256;
  // Same total work; the under-parallel launch must be slower.
  const double t_few = model_time(spec, few, 1'000'000'000, 1'000'000'000);
  const double t_many = model_time(spec, many, 1'000'000'000, 1'000'000'000);
  EXPECT_GT(t_few, t_many);
}

TEST(ModelTime, HugeSmemBlocksHurtOccupancy) {
  const auto spec = MachineSpec::v100();
  LaunchConfig small, big;
  small.num_blocks = big.num_blocks = 10000;
  small.threads_per_block = big.threads_per_block = 256;
  small.smem_bytes_per_block = spec.shared_mem_per_sm / 8;
  big.smem_bytes_per_block = spec.shared_mem_per_sm;  // one block per SM
  const double t_small = model_time(spec, small, 1'000'000, 1'000'000'000'000);
  const double t_big = model_time(spec, big, 1'000'000, 1'000'000'000'000);
  EXPECT_LE(t_small, t_big);
}

TEST(ModelTime, RejectsOversizedBlocks) {
  const auto spec = MachineSpec::v100();
  LaunchConfig cfg;
  cfg.num_blocks = 1;
  cfg.smem_bytes_per_block = spec.shared_mem_per_sm + 1;
  EXPECT_THROW(model_time(spec, cfg, 1, 1), Error);
  cfg.smem_bytes_per_block = 0;
  cfg.threads_per_block = spec.max_threads_per_block + 1;
  EXPECT_THROW(model_time(spec, cfg, 1, 1), Error);
}

TEST(SimGpu, CountsLoadsAndStores) {
  SimGpu gpu(MachineSpec::test_machine());
  std::vector<float> global(256, 1.0f);
  std::vector<float> out(256, 0.0f);
  LaunchConfig cfg;
  cfg.num_blocks = 4;
  cfg.threads_per_block = 32;
  cfg.smem_bytes_per_block = 64 * sizeof(float);
  const auto stats = gpu.launch(cfg, [&](BlockContext& ctx) {
    auto buf = ctx.smem().alloc<float>(64);
    ctx.load(global.data() + ctx.block_id() * 64, buf.data(), 64);
    for (auto& v : buf) v *= 2.0f;
    ctx.add_flops(64);
    ctx.store(out.data() + ctx.block_id() * 64, buf.data(), 64);
  });
  EXPECT_EQ(stats.bytes_loaded, 4u * 64 * sizeof(float));
  EXPECT_EQ(stats.bytes_stored, 4u * 64 * sizeof(float));
  EXPECT_EQ(stats.flops, 256u);
  EXPECT_GT(stats.sim_time, 0);
  for (float v : out) EXPECT_EQ(v, 2.0f);
}

TEST(SimGpu, EnforcesBlockSharedMemory) {
  SimGpu gpu(MachineSpec::test_machine());
  LaunchConfig cfg;
  cfg.num_blocks = 1;
  cfg.smem_bytes_per_block = 128;
  EXPECT_THROW(gpu.launch(cfg,
                          [&](BlockContext& ctx) {
                            ctx.smem().alloc<float>(64);  // 256 B > 128 B
                          }),
               Error);
}

TEST(SimGpu, GatherCostsMoreThanContiguous) {
  SimGpu gpu(MachineSpec::test_machine());
  std::vector<float> global(1024, 1.0f);
  LaunchConfig cfg;
  cfg.num_blocks = 1;
  cfg.smem_bytes_per_block = 512;
  float sink[64];
  const auto contiguous = gpu.launch(cfg, [&](BlockContext& ctx) {
    ctx.load_gather(global.data(), 1, sink, 64);
  });
  const auto strided = gpu.launch(cfg, [&](BlockContext& ctx) {
    ctx.load_gather(global.data(), 16, sink, 64);
  });
  EXPECT_EQ(contiguous.bytes_loaded, 64 * sizeof(float));
  EXPECT_EQ(strided.bytes_loaded, 64 * BlockContext::kTransactionBytes);
}

TEST(SimGpu, StripedLaunchNestsInsidePoolTask) {
  // The only worker of the pool issues the launch, so no helper can ever
  // dequeue: the launch completes only if the caller drains blocks itself.
  auto pool = std::make_unique<ThreadPool>(1);
  SimGpu gpu(MachineSpec::test_machine(), pool.get());
  LaunchConfig cfg;
  cfg.num_blocks = 9;
  cfg.smem_bytes_per_block = 64 * sizeof(float);
  std::vector<float> out(static_cast<std::size_t>(cfg.num_blocks), 0.0f);
  const SimGpu::Kernel kernel = [&](BlockContext& ctx) {
    const float v = static_cast<float>(ctx.block_id());
    ctx.store(out.data() + ctx.block_id(), &v, 1);
  };
  auto fut = pool->submit([&] { return gpu.launch(cfg, kernel); });
  if (fut.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    // The worker is stuck for good: joining it would hang teardown, so the
    // pool is leaked and the process exits around it.
    static_cast<void>(pool.release());
    FAIL() << "nested striped launch did not complete within 5 s";
  }
  const LaunchStats st = fut.get();
  EXPECT_EQ(st.bytes_stored, 9u * sizeof(float));
  for (std::size_t b = 0; b < out.size(); ++b)
    EXPECT_EQ(out[b], static_cast<float>(b));
}

TEST(SimGpu, StripedLaunchThrowsOnlyAfterEveryBlockDrained) {
  ThreadPool pool(4);
  SimGpu gpu(MachineSpec::test_machine(), &pool);
  LaunchConfig cfg;
  cfg.num_blocks = 37;
  cfg.smem_bytes_per_block = 64 * sizeof(float);
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  const SimGpu::Kernel kernel = [&](BlockContext& ctx) {
    running.fetch_add(1, std::memory_order_relaxed);
    // Block 5 overflows its shared memory; its siblings are still busy.
    ctx.smem().alloc<float>(ctx.block_id() == 5 ? 65 : 64);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    running.fetch_sub(1, std::memory_order_relaxed);
    finished.fetch_add(1, std::memory_order_relaxed);
  };
  EXPECT_THROW(gpu.launch(cfg, kernel), Error);
  // Only block 5 is left mid-flight (it threw before decrementing), and no
  // block starts or finishes once launch has returned.
  EXPECT_EQ(running.load(std::memory_order_relaxed), 1);
  const int done = finished.load(std::memory_order_relaxed);
  EXPECT_GE(done, 4);
  EXPECT_LE(done, 36);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(finished.load(std::memory_order_relaxed), done);
}

TEST(SimGpu, StatsAccumulate) {
  LaunchStats a, b;
  a.bytes_loaded = 10;
  a.flops = 5;
  a.sim_time = 1.0;
  b.bytes_loaded = 20;
  b.flops = 15;
  b.sim_time = 2.0;
  a += b;
  EXPECT_EQ(a.bytes_loaded, 30u);
  EXPECT_EQ(a.flops, 20u);
  EXPECT_DOUBLE_EQ(a.sim_time, 3.0);
}

}  // namespace
}  // namespace convbound
