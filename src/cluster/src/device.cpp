#include "convbound/cluster/device.hpp"

#include "convbound/util/check.hpp"

namespace convbound {

ClusterDevice::ClusterDevice(const std::map<std::string, ServedModel>& models,
                             DeviceConfig config, const ServingOptions* opts,
                             int ordinal)
    : config_(std::move(config)),
      models_(&models),
      opts_(opts),
      ordinal_(ordinal),
      engine_(std::make_unique<ServeEngine>(models, *opts_, config_, ordinal_,
                                            &stats_)) {
  CB_CHECK_MSG(config_.workers >= 1, "device workers must be >= 1");
  if (config_.name.empty()) config_.name = config_.spec.name;
}

ClusterDevice::~ClusterDevice() { drain(); }

void ClusterDevice::start() {
  {
    MutexLock lock(mu_);
    CB_CHECK_MSG(!started_, "device already started");
    started_ = true;
  }
  // Pointer under engine_mu_, pointee outside it: warm() is long and the
  // engine is thread-safe; holding the lock across it would block stats()
  // polls for the whole warm. No cold revive can race a first start().
  ServeEngine* engine = nullptr;
  {
    MutexLock lock(engine_mu_);
    engine = engine_.get();
  }
  engine->warm();
  stats_.mark_start();
  spawn_workers();
}

void ClusterDevice::spawn_workers() {
  MutexLock lock(mu_);
  CB_CHECK_MSG(workers_.empty(), "device workers already running");
  mode_ = Mode::kRunning;
  alive_ = true;
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void ClusterDevice::worker_loop() {
  for (;;) {
    Task task;
    {
      UniqueLock lock(mu_);
      while (mode_ == Mode::kRunning && tasks_.empty()) cv_.wait(lock);
      // kFailing abandons the queue (fail() strands it for the cluster to
      // re-route); kDraining runs it dry first.
      if (mode_ == Mode::kFailing) return;
      if (tasks_.empty()) return;  // kDraining and dry
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    // RAII: the Router reservation must return even if execute_batch has a
    // defect (a leak would silently shrink the device's capacity until the
    // fleet deadlocks).
    struct Done {
      std::function<void()>* fn;
      ~Done() {
        if (*fn) (*fn)();
      }
    } run_done{&task.on_done};
    // The pointer read must be under engine_mu_ (a cold revive on another
    // thread swaps it); the batch itself runs outside the lock. The pointee
    // cannot be destroyed mid-batch: revive() requires workers_ joined.
    ServeEngine* engine = nullptr;
    {
      MutexLock lock(engine_mu_);
      engine = engine_.get();
    }
    engine->execute_batch(std::move(task.group), task.model);
  }
}

void ClusterDevice::join_workers() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& w : workers) w.join();
}

void ClusterDevice::drain() {
  {
    MutexLock lock(mu_);
    if (workers_.empty()) return;
    mode_ = Mode::kDraining;
  }
  join_workers();
  MutexLock lock(mu_);
  alive_ = false;
}

bool ClusterDevice::enqueue(std::vector<PendingRequest>&& group,
                            const std::string& model,
                            std::function<void()> on_done) {
  {
    MutexLock lock(mu_);
    CB_CHECK_MSG(started_, "device not started");
    // Refusal must leave `group` untouched: taking the vector by value here
    // would destroy the requests (and break their promises) the instant a
    // dead device bounced a placement that raced fail().
    if (!alive_ || mode_ != Mode::kRunning) return false;
    tasks_.push_back(Task{std::move(group), model, std::move(on_done)});
  }
  cv_.notify_one();
  return true;
}

std::vector<ClusterDevice::StrandedGroup> ClusterDevice::fail() {
  {
    MutexLock lock(mu_);
    if (!alive_) return {};
    mode_ = Mode::kFailing;
    alive_ = false;  // enqueue() starts bouncing immediately
  }
  join_workers();
  MutexLock lock(mu_);
  std::vector<StrandedGroup> stranded;
  stranded.reserve(tasks_.size());
  for (Task& t : tasks_)
    stranded.push_back(
        StrandedGroup{std::move(t.group), std::move(t.model),
                      std::move(t.on_done)});
  tasks_.clear();
  return stranded;
}

void ClusterDevice::revive(ReviveMode mode) {
  {
    MutexLock lock(mu_);
    CB_CHECK_MSG(started_, "cannot revive a never-started device");
    CB_CHECK_MSG(!alive_ && workers_.empty(),
                 "revive() on a live device '" << config_.name << "'");
  }
  if (mode == ReviveMode::kCold) {
    // Rebuild + re-warm off to the side, then swap under the stats lock:
    // pollers never see a half-built engine, and the fleet keeps serving on
    // the other devices the whole time.
    auto fresh = std::make_unique<ServeEngine>(*models_, *opts_, config_,
                                               ordinal_, &stats_);
    fresh->warm();
    MutexLock lock(engine_mu_);
    engine_ = std::move(fresh);
  }
  spawn_workers();
}

bool ClusterDevice::alive() const {
  MutexLock lock(mu_);
  return alive_;
}

StatsSnapshot ClusterDevice::stats() const {
  StatsSnapshot s = stats_.snapshot();
  MutexLock lock(engine_mu_);
  engine_->fill_stats(s);
  return s;
}

}  // namespace convbound
