#include "convbound/serve/engine.hpp"

#include <algorithm>

#include "convbound/obs/trace.hpp"
#include "convbound/util/check.hpp"
#include "convbound/util/thread_pool.hpp"

namespace convbound {

namespace {

double seconds_between(ServeTimePoint from, ServeTimePoint to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

ServeEngine::ServeEngine(const std::map<std::string, ServedModel>& models,
                         const ServingOptions& opts,
                         const DeviceConfig& device, int ordinal,
                         ServerStats* stats)
    : models_(&models),
      opts_(opts),
      machine_(device.spec),
      replicas_(device.effective_replicas()),
      ordinal_(ordinal),
      stats_(stats) {
  CB_CHECK_MSG(!models.empty(), "engine needs at least one model");
  CB_CHECK_MSG(replicas_ >= 1, "replicas must be >= 1");
  CB_CHECK_MSG(stats_ != nullptr, "engine needs a stats sink");
  // Bucket feasibility must account for the scheduler's group-formation
  // window, which lives in the serving options, not in the batch policy
  // the caller set.
  opts_.batch_policy.max_delay_seconds =
      std::chrono::duration<double>(opts_.max_delay).count();
}

void ServeEngine::warm() {
  {
    MutexLock lock(planners_mu_);
    CB_CHECK_MSG(!warmed_ && planners_.empty(), "engine already warmed");
  }
  PlannerOptions popts;
  popts.mode = opts_.plan_mode;
  popts.candidates = CandidateSet::kOurs;
  popts.tune_budget = opts_.tune_budget;
  popts.seed = opts_.seed;
  plan_opts_ = popts;

  // Sessions are constructed serially (cheap), then warmed in parallel —
  // planner, tune cache, and per-session workspaces are all safe under
  // concurrent warm(), so startup scales with cores instead of with
  // models x buckets x replicas.
  std::vector<std::unique_ptr<ServeSession>> fresh;
  for (const auto& [name, model] : *models_) {
    // Bound-guided bucket choice; the full candidate scoring is kept for
    // reporting even when the bucket is forced.
    BucketChoice choice =
        choose_batch_bucket(model, machine_, opts_.batch_policy);
    if (opts_.force_bucket > 0) {
      choice.bucket = opts_.force_bucket;
      bool scored = false;
      for (const auto& s : choice.scores)
        scored = scored || s.bucket == choice.bucket;
      // An off-ladder forced bucket (e.g. 3) gets a real analytic score so
      // reporting still shows what was chosen and what it costs.
      if (!scored)
        choice.scores.push_back(score_batch_bucket(model, machine_,
                                                   choice.bucket,
                                                   opts_.batch_policy));
      for (auto& s : choice.scores) s.chosen = s.bucket == choice.bucket;
    }
    buckets_.emplace(name, std::move(choice));

    // Warm one session ladder per replica: powers of two up to the chosen
    // bucket (plus the chosen bucket itself when forced off-ladder), so a
    // partial group runs at the smallest covering bucket.
    std::vector<std::int64_t> ladder;
    for (std::int64_t b = 1; b < buckets_.at(name).bucket; b *= 2)
      ladder.push_back(b);
    ladder.push_back(buckets_.at(name).bucket);
    exec_buckets_.emplace(name, ladder);

    Planner* planner = nullptr;
    {
      MutexLock lock(planners_mu_);
      planner = &planners_
                     .emplace(std::piecewise_construct,
                              std::forward_as_tuple(name),
                              std::forward_as_tuple(&cache_))
                     .first->second;  // map nodes are stable after unlock
    }
    for (std::int64_t b : ladder)
      for (int r = 0; r < replicas_; ++r)
        fresh.push_back(std::make_unique<ServeSession>(
            model, b, machine_, *planner, popts));
  }
  ThreadPool::global().parallel_for(
      0, fresh.size(), [&](std::size_t i) { fresh[i]->warm(); });
  for (auto& session : fresh) sessions_.add(std::move(session));
  {
    const std::size_t warm = plans_memoised();
    MutexLock lock(planners_mu_);
    warm_plans_ = warm;
    warmed_ = true;
  }
}

void ServeEngine::execute_batch(std::vector<PendingRequest> group,
                                const std::string& model_name) {
  // Complete every not-yet-completed promise with kError; promises that
  // were already satisfied before a mid-loop throw are skipped.
  std::vector<PendingRequest> live;
  const auto fail_batch = [&](const char* what) {
    for (auto& p : live) {
      stats_->record_unserved(ServeStatus::kError, 1, p.tenant_class);
      InferResponse r;
      r.status = ServeStatus::kError;
      r.error = what;
      try {
        p.promise.set_value(std::move(r));
      } catch (const std::future_error&) {
      }
    }
  };

  try {
    // Everything from here to completion — batch assembly, padding, the
    // session run — is the request's *exec* stage; `now` is its start.
    const ServeTimePoint now = ServeClock::now();
    live.reserve(group.size());
    for (auto& p : group) {
      if (p.effective_deadline() < now) {
        InferResponse r;
        r.status = ServeStatus::kDeadlineExceeded;
        r.latency_seconds = seconds_between(p.enqueued, now);
        obs::instant(TraceStage::kExpire, now, p.trace_id, p.batch_id,
                     ordinal_, r.latency_seconds);
        // Record before completing: a client that sees its future resolve
        // must also see the stats reflect it.
        stats_->record_unserved(ServeStatus::kDeadlineExceeded, 1,
                                p.tenant_class);
        p.promise.set_value(std::move(r));
      } else {
        live.push_back(std::move(p));
      }
    }
    if (live.empty()) return;

    // Smallest warm bucket covering the group (the ladder ends at the
    // scheduler's max group size, so one always exists).
    const std::vector<std::int64_t>& ladder = exec_buckets(model_name);
    std::int64_t bucket = ladder.back();
    for (std::int64_t b : ladder) {
      if (b >= static_cast<std::int64_t>(live.size())) {
        bucket = b;
        break;
      }
    }
    SessionPool::Guard session = sessions_.acquire(model_name, bucket);
    const ServedModel& m = session->model();
    const std::int64_t lane_elems =
        m.input_c() * m.input_h() * m.input_w();

    Workspace::Lease in = session->workspace().acquire(
        bucket, m.input_c(), m.input_h(), m.input_w());
    Tensor4<float>& batch = in.tensor();
    for (std::size_t i = 0; i < live.size(); ++i) {
      const Tensor4<float>& src = live[i].request.input;
      std::copy(src.data(), src.data() + lane_elems,
                batch.data() + static_cast<std::int64_t>(i) * lane_elems);
    }
    // Padded lanes cannot influence live lanes (conv algorithms process
    // batch lanes independently); zero them anyway so every execution of a
    // partial group is bit-reproducible.
    std::fill(batch.data() +
                  static_cast<std::int64_t>(live.size()) * lane_elems,
              batch.data() + batch.size(), 0.0f);

    ServeSession::BatchResult res = session->run(batch);
    const Tensor4<float>& out = res.output.tensor();
    const std::int64_t out_lane = out.c() * out.h() * out.w();
    const ServeTimePoint done = ServeClock::now();

    std::vector<InferResponse> responses;
    std::vector<double> latencies;
    std::vector<std::string> classes;
    std::vector<ServerStats::StageLatencies> stages;
    responses.reserve(live.size());
    latencies.reserve(live.size());
    classes.reserve(live.size());
    stages.reserve(live.size());
    const bool tracing = obs::on();
    for (std::size_t i = 0; i < live.size(); ++i) {
      InferResponse r;
      r.status = ServeStatus::kOk;
      r.output = Tensor4<float>(1, out.c(), out.h(), out.w());
      std::copy(out.data() + static_cast<std::int64_t>(i) * out_lane,
                out.data() + static_cast<std::int64_t>(i + 1) * out_lane,
                r.output.data());
      r.latency_seconds = seconds_between(live[i].enqueued, done);
      r.batch_size = static_cast<int>(live.size());
      r.batch_sim_seconds = res.stats.sim_time;
      latencies.push_back(r.latency_seconds);
      classes.push_back(live[i].tenant_class);
      // Stage decomposition from the same timestamps the end-to-end latency
      // uses, so queue_wait + batch_delay + exec == latency exactly. A
      // request that never went through the scheduler (unstamped
      // `collected`) charges its whole pre-exec wait to queue_wait.
      ServeTimePoint collected = live[i].collected;
      if (collected == ServeTimePoint{} || collected < live[i].enqueued ||
          collected > now)
        collected = now;
      ServerStats::StageLatencies st;
      st.queue_wait = seconds_between(live[i].enqueued, collected);
      st.batch_delay = seconds_between(collected, now);
      st.exec = seconds_between(now, done);
      stages.push_back(st);
      if (tracing) {
        obs::span(TraceStage::kQueueWait, live[i].enqueued, collected,
                  live[i].trace_id, live[i].batch_id, ordinal_,
                  static_cast<double>(live[i].shard));
        obs::instant(TraceStage::kComplete, done, live[i].trace_id,
                     live[i].batch_id, ordinal_,
                     r.latency_seconds);
      }
      responses.push_back(std::move(r));
    }
    // The execute span carries the modelled batch time as its value, so a
    // trace shows modelled vs. wall per batch (dur vs. args.value).
    obs::span(TraceStage::kExecute, now, done, 0, live.front().batch_id,
              ordinal_, res.stats.sim_time);
    // Record before completing any promise: a client that sees its future
    // resolve must also see the stats reflect the whole batch.
    stats_->record_batch(live.size(), res.stats.sim_time, latencies, classes,
                         stages);
    for (std::size_t i = 0; i < live.size(); ++i)
      live[i].promise.set_value(std::move(responses[i]));
  } catch (const std::exception& e) {
    fail_batch(e.what());
  } catch (...) {
    fail_batch("unknown execution error");
  }
}

double ServeEngine::predicted_batch_seconds(const std::string& name) {
  const ServedModel& m = model(name);
  const std::int64_t bucket = bucket_of(name);
  Planner* planner = nullptr;
  {
    MutexLock lock(planners_mu_);
    const auto it = planners_.find(name);
    CB_CHECK_MSG(it != planners_.end(),
                 "no planner for '" << name << "' (engine not warmed)");
    planner = &it->second;
  }
  // Matches the sessions' SimGpu setup, although nothing executes: every
  // shape below was planned during warm() with the same options, so each
  // plan() is a memo hit.
  SimGpu gpu(machine_, &ThreadPool::global(), ExecMode::kSerial);
  double seconds = 0;
  for (const auto& layer : m.layers)
    seconds += planner
                   ->plan(gpu, shape_at_batch(layer.shape, bucket),
                          plan_opts_)
                   .predicted_seconds;
  return seconds;
}

std::size_t ServeEngine::plans_memoised() const {
  MutexLock lock(planners_mu_);
  std::size_t n = 0;
  for (const auto& [name, planner] : planners_) n += planner.plans_memoised();
  return n;
}

void ServeEngine::fill_stats(StatsSnapshot& s) const {
  s.plans_memoised = plans_memoised();
  std::size_t warm_plans = 0;
  bool warmed = false;
  {
    MutexLock lock(planners_mu_);
    warm_plans = warm_plans_;
    warmed = warmed_;
  }
  if (warmed && s.plans_memoised >= warm_plans)
    s.plan_misses_after_warm = s.plans_memoised - warm_plans;
  s.workspace_buffers = sessions_.workspace_buffers();
  s.workspace_bytes = sessions_.workspace_bytes();
}

const ServedModel& ServeEngine::model(const std::string& name) const {
  const auto it = models_->find(name);
  CB_CHECK_MSG(it != models_->end(),
               "unknown served model '" << name << "'");
  return it->second;
}

const BucketChoice& ServeEngine::bucket_choice(const std::string& name) const {
  const auto it = buckets_.find(name);
  CB_CHECK_MSG(it != buckets_.end(),
               "no bucket for '" << name << "' (engine not warmed)");
  return it->second;
}

std::int64_t ServeEngine::bucket_of(const std::string& name) const {
  return bucket_choice(name).bucket;
}

const std::vector<std::int64_t>& ServeEngine::exec_buckets(
    const std::string& name) const {
  const auto it = exec_buckets_.find(name);
  CB_CHECK_MSG(it != exec_buckets_.end(),
               "no session ladder for '" << name << "' (engine not warmed)");
  return it->second;
}

}  // namespace convbound
