#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "rs/adversary/attack.h"
#include "rs/runtime/stream_hub.h"
#include "rs/stream/exact_oracle.h"
#include "rs/stream/generators.h"
#include "rs/util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using rs::runtime::QueryResult;
using rs::runtime::StreamHub;

constexpr uint64_t kDomain = uint64_t{1} << 20;  // n
constexpr uint64_t kLength = uint64_t{1} << 24;  // m = M
constexpr size_t kTenants = 16;
constexpr size_t kMaxProblems = 8;

// fp_ingest: 64-update batches (a 256-update batch takes 50 ms, too few
// steps in a run for a steady p99), and a Query after every 32nd batch of
// a tenant, i.e. every 2048 updates — a multiple of merge_period 1024, so
// each checked answer was published by a gate over exactly the updates the
// oracle has seen.
constexpr size_t kFpBatch = 64;
constexpr size_t kFpQueryEvery = 32;
constexpr size_t kZipfPool = size_t{1} << 20;  // Updates per generated pool.

// checkpoint fill: enough Zipf(0.8) updates that every f0 sub-sketch (one
// per copy and shard) holds its full k = 800 values; the fp sub-sketches
// are dense from creation, so one gate period each is enough.
constexpr size_t kFillBatch = 256;
constexpr size_t kFillF0Batches = 32;
constexpr size_t kFillFpBatches = 4;
constexpr size_t kFillQueryEvery = 4;
constexpr size_t kRoundUpdates = 256;
constexpr size_t kMinCheckpointRounds = 3;
// Checkpoint rounds fp_ingest and f0_adaptive spread over their budget.
constexpr size_t kRounds = 15;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

rs::RobustConfig TenantConfig(rs::Task task, double p, size_t shards,
                              size_t merge_period) {
  rs::RobustConfig c;
  c.eps = kEps;
  c.delta = 0.05;
  c.stream.n = kDomain;
  c.stream.m = kLength;
  c.stream.max_frequency = kLength;
  c.stream.model = rs::StreamModel::kInsertionOnly;
  c.method = rs::Method::kSketchSwitching;
  c.fp.p = p;
  c.engine.task = task;
  c.engine.shards = shards;
  c.engine.merge_period = merge_period;
  c.engine.threads = 1;
  return c;
}

void AddTenant(std::vector<Tenant>* fleet, std::string name, rs::Task task,
               double p, size_t shards, size_t merge_period, uint64_t seed) {
  Tenant t;
  t.name = std::move(name);
  t.task = task;
  t.config = TenantConfig(task, p, shards, merge_period);
  // Nonzero: seed 0 would ask the hub to derive one from the name.
  t.seed = rs::SplitMix64(rs::SplitMix64(seed) + fleet->size()) | 1;
  fleet->push_back(std::move(t));
}

std::string Numbered(const char* prefix, size_t i) {
  return std::string(prefix) + (i < 10 ? "0" : "") + std::to_string(i);
}

// The exact answer a tenant's Query is checked against. F0 tenants keep a
// bitmap over the domain, so the oracle's memory is fixed however long the
// run is (peak_rss_mib then tracks the hub, not the oracle); fp tenants
// (p in {1, 2} in every fleet) keep the library's ExactOracle.
class Oracle {
 public:
  explicit Oracle(const Tenant& t)
      : f0_(t.task == rs::Task::kF0), p_(t.config.fp.p) {
    if (f0_) seen_.assign(t.config.stream.n / 64 + 1, 0);
  }

  void Update(const rs::Update& u) {
    if (!f0_) {
      moments_.Update(u);
      return;
    }
    // Insertion-only streams over [n]: F0 counts the items seen.
    uint64_t& word = seen_.at(u.item >> 6);
    const uint64_t bit = uint64_t{1} << (u.item & 63);
    distinct_ += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  }

  double Exact() const {
    if (f0_) return static_cast<double>(distinct_);
    return p_ == 2.0 ? moments_.F2() : static_cast<double>(moments_.F1());
  }

 private:
  bool f0_;
  double p_;
  std::vector<uint64_t> seen_;
  uint64_t distinct_ = 0;
  rs::ExactOracle moments_;
};

double RelativeError(double estimate, double exact) {
  if (exact == 0.0) {
    return estimate == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return std::fabs(estimate - exact) / exact;
}

// Zipf(s) updates over [n], drawn from pregenerated pools so generation
// stays out of the timed loop; pool k is seeded from (seed, k).
class ZipfFeed {
 public:
  ZipfFeed(double s, size_t pool_size, uint64_t seed)
      : s_(s), pool_size_(pool_size), seed_(seed) {
    Refill();
  }

  const rs::Update* Take(size_t count) {
    if (pos_ + count > pool_.size()) Refill();
    const rs::Update* out = pool_.data() + pos_;
    pos_ += count;
    return out;
  }

 private:
  void Refill() {
    pool_ = rs::ZipfStream(kDomain, pool_size_, s_,
                           rs::SplitMix64(seed_ + refills_++));
    pos_ = 0;
  }

  double s_;
  size_t pool_size_;
  uint64_t seed_;
  uint64_t refills_ = 0;
  rs::Stream pool_;
  size_t pos_ = 0;
};

// CreateStream for every tenant; returns the seconds it took.
double CreateFleet(const std::vector<Tenant>& fleet, StreamHub* hub,
                   RunResult* out) {
  const auto t0 = Clock::now();
  for (const Tenant& t : fleet) {
    const rs::Status st = hub->CreateStream(t.name, t.task, t.config, t.seed);
    out->attempted += 1;
    if (!st.ok()) {
      out->failed += 1;
      out->Fail("CreateStream " + t.name + ": " + st.ToString());
    }
  }
  return Seconds(Clock::now() - t0);
}

// The client side of one run: the hub, the fleet, one exact oracle per
// tenant, and the bookkeeping every hub call goes through.
class Client {
 public:
  Client(const RunOptions& options, std::vector<Tenant> fleet,
         RunResult* out)
      : options_(options),
        fleet_(std::move(fleet)),
        out_(out),
        hub_(std::make_unique<StreamHub>()) {
    for (const Tenant& t : fleet_) oracles_.emplace_back(t);
  }

  const std::vector<Tenant>& fleet() const { return fleet_; }

  void CreateFleet() { perfbench::CreateFleet(fleet_, hub_.get(), out_); }

  // Starts the timed loop's budget: `seconds` of wall time, or max_steps.
  // `rounds` checkpoint rounds are spread evenly over the budget (off the
  // ingest clock), so their samples see the whole run, not its last
  // moments.
  void StartClock(size_t rounds = 0) {
    steps_ = 0;
    rounds_due_ = rounds;
    rounds_done_ = 0;
    start_ = Clock::now();
  }
  // Called between steps: runs a checkpoint round when one is due, and
  // says whether the budget has room for another step.
  bool Running() {
    const double used =
        options_.max_steps != 0
            ? static_cast<double>(steps_) /
                  static_cast<double>(options_.max_steps)
            : Seconds(Clock::now() - start_) / options_.seconds;
    while (rounds_done_ < rounds_due_ &&
           used * static_cast<double>(rounds_due_ + 1) >
               static_cast<double>(rounds_done_ + 1)) {
      CheckpointRound();
      ++rounds_done_;
    }
    return used < 1.0;
  }
  // Runs the checkpoint rounds the budget ended before.
  void FinishRounds() {
    for (; rounds_done_ < rounds_due_; ++rounds_done_) CheckpointRound();
  }
  void CountStep() { ++steps_; }

  // One ingest step: UpdateBatch into tenant t, then Query it if `query`.
  // An untimed step (checkpoint's fill) is checked and recorded but not
  // counted in the step and rate metrics.
  void BatchStep(size_t t, const rs::Update* ups, size_t count, bool query,
                 bool timed = true) {
    const std::string& name = fleet_[t].name;
    std::optional<rs::Result<QueryResult>> answer;
    const auto t0 = Clock::now();
    const rs::Status st = hub_->UpdateBatch(name, ups, count);
    if (query) answer.emplace(hub_->Query(name));
    const auto t1 = Clock::now();
    Finish(t, t1 - t0, st, Call::kBatch, ups, count, answer, timed);
  }

  // One Update into tenant t, then Query it if `query`, timed as one span
  // (an adaptive round always queries). Returns the answer, if any.
  std::optional<QueryResult> UpdateStep(size_t t, const rs::Update& u,
                                        bool query) {
    const std::string& name = fleet_[t].name;
    std::optional<rs::Result<QueryResult>> answer;
    const auto t0 = Clock::now();
    const rs::Status st = hub_->Update(name, u);
    if (query) answer.emplace(hub_->Query(name));
    const auto t1 = Clock::now();
    Finish(t, t1 - t0, st, Call::kUpdate, &u, 1, answer, true);
    if (!answer.has_value() || !answer->ok()) return std::nullopt;
    return answer->value();
  }

  // Snapshot -> Restore into a fresh hub -> verify -> fail over. The
  // restored hub must re-snapshot byte-identically and answer every Query
  // exactly as the live one does.
  void CheckpointRound() {
    const auto t0 = Clock::now();
    const rs::Status snap = hub_->Snapshot(&envelope_);
    const auto t1 = Clock::now();
    Count(snap, "Snapshot");
    auto standby = std::make_unique<StreamHub>();
    const auto t2 = Clock::now();
    const rs::Status restored = standby->Restore(envelope_);
    const auto t3 = Clock::now();
    Count(restored, "Restore");
    if (!snap.ok() || !restored.ok()) return;
    out_->snapshot_s.push_back(Seconds(t1 - t0));
    out_->restore_s.push_back(Seconds(t3 - t2));
    out_->envelope_bytes = envelope_.size();

    std::string again;
    Count(standby->Snapshot(&again), "Snapshot");
    if (again != envelope_) {
      out_->Fail("checkpoint: restored hub does not re-snapshot identically");
    }
    for (const Tenant& t : fleet_) {
      const auto live = hub_->Query(t.name);
      const auto copy = standby->Query(t.name);
      Count(live.ok() ? rs::Status::Ok() : live.status(), "Query");
      Count(copy.ok() ? rs::Status::Ok() : copy.status(), "Query");
      if (live.ok() && copy.ok() && !SameAnswer(*live, *copy)) {
        out_->Fail("checkpoint: " + t.name + " answers differently after " +
                   "Restore");
      }
    }
    hub_ = std::move(standby);
  }

  void Summarize() {
    for (const rs::runtime::StreamInfo& info : hub_->ListStreams()) {
      out_->footprint_bytes += info.memory_footprint_bytes;
      out_->flips += info.guarantee.flips_spent;
    }
  }

 private:
  static bool SameAnswer(const QueryResult& a, const QueryResult& b) {
    return a.estimate == b.estimate && a.output_changed == b.output_changed &&
           a.guarantee.flips_spent == b.guarantee.flips_spent &&
           a.guarantee.flip_budget == b.guarantee.flip_budget &&
           a.guarantee.copies_retired == b.guarantee.copies_retired &&
           a.guarantee.holds == b.guarantee.holds;
  }

  void Count(const rs::Status& st, const char* what) {
    out_->attempted += 1;
    if (!st.ok()) {
      out_->failed += 1;
      out_->Fail(std::string(what) + ": " + st.ToString());
    }
  }

  // Off-clock bookkeeping after a step: statuses, the step's span, the
  // exact oracle, the accuracy check and the recording.
  void Finish(size_t t, Clock::duration span, const rs::Status& st,
              Call::Kind kind, const rs::Update* ups, size_t count,
              const std::optional<rs::Result<QueryResult>>& answer,
              bool timed) {
    Count(st, kind == Call::kBatch ? "UpdateBatch" : "Update");
    if (timed) {
      out_->windows.Add(count, Seconds(span));
      out_->step_us.Add(Seconds(span) * 1e6);
    }
    for (size_t i = 0; i < count; ++i) oracles_[t].Update(ups[i]);
    if (answer.has_value()) {
      Count(answer->ok() ? rs::Status::Ok() : answer->status(), "Query");
      if (answer->ok()) {
        const double exact = oracles_[t].Exact();
        const double err = RelativeError((*answer)->estimate, exact);
        out_->accuracy_checks += 1;
        out_->max_error = std::max(out_->max_error, err);
        if (!(err <= kEps)) {
          out_->Fail(fleet_[t].name + ": estimate " +
                     std::to_string((*answer)->estimate) + " vs exact " +
                     std::to_string(exact));
        }
      }
    }
    if (options_.record) {
      Recording& rec = out_->recording;
      rec.calls.push_back({kind, static_cast<uint32_t>(t), rec.updates.size(),
                           count});
      rec.updates.insert(rec.updates.end(), ups, ups + count);
      if (answer.has_value()) {
        rec.calls.push_back({Call::kQuery, static_cast<uint32_t>(t), 0, 0});
        rec.answers.push_back(answer->ok()
                                  ? (*answer)->estimate
                                  : std::numeric_limits<double>::quiet_NaN());
      }
      rec.steps += 1;
      rec.busy_s += Seconds(span);
    }
  }

  const RunOptions& options_;
  std::vector<Tenant> fleet_;
  std::vector<Oracle> oracles_;
  RunResult* out_;
  std::unique_ptr<StreamHub> hub_;
  std::string envelope_;  // Reused across rounds, like a checkpoint buffer.
  Clock::time_point start_;
  size_t steps_ = 0;
  size_t rounds_due_ = 0;
  size_t rounds_done_ = 0;
};

// fp_ingest's timed phase: Zipf(1.1) batches round-robin over the
// tenants until the budget runs out.
void IngestZipf(Client* client, uint64_t seed) {
  ZipfFeed feed(1.1, kZipfPool, seed);
  const size_t tenants = client->fleet().size();
  std::vector<size_t> sent(tenants, 0);
  client->StartClock(kRounds);
  for (size_t b = 0; client->Running(); ++b) {
    const size_t t = b % tenants;
    const bool query = (sent[t] + 1) % kFpQueryEvery == 0;
    client->BatchStep(t, feed.Take(kFpBatch), kFpBatch, query);
    ++sent[t];
    client->CountStep();
  }
}

// f0_adaptive's timed phase: each tenant is played by its own seeded
// fuzzer attack, which sees every answer and guarantee the hub gives.
void PlayAdaptive(Client* client) {
  const std::vector<Tenant>& fleet = client->fleet();
  std::vector<std::unique_ptr<rs::Attack>> attacks;
  std::vector<rs::AdaptiveView> views(fleet.size());
  for (size_t t = 0; t < fleet.size(); ++t) {
    attacks.push_back(rs::MakeAttack("fuzzer", fleet[t].config.stream,
                                     rs::SplitMix64(fleet[t].seed ^ 0xA77AC)));
    views[t].last_response = 0.0;  // The engine's initial output.
    views[t].step = 1;
    views[t].has_guarantee = true;
  }
  size_t playing = fleet.size();
  std::vector<bool> done(fleet.size(), false);
  client->StartClock(kRounds);
  for (size_t r = 0; playing > 0 && client->Running(); ++r) {
    const size_t t = r % fleet.size();
    if (done[t]) continue;
    const std::optional<rs::Update> u = attacks[t]->NextUpdate(views[t]);
    if (!u.has_value()) {
      done[t] = true;
      --playing;
      continue;
    }
    const std::optional<QueryResult> answer =
        client->UpdateStep(t, *u, /*query=*/true);
    client->CountStep();
    if (answer.has_value()) {
      views[t].last_response = answer->estimate;
      views[t].guarantee = answer->guarantee;
    }
    ++views[t].step;
  }
}

// checkpoint's load. An untimed Zipf(0.8) fill in batches, then rounds
// until the budget runs out: 256 timed single Updates into every f0
// tenant, round-robin (periodic ingest between checkpoints, small next to
// the checkpoint itself; the fp tenants would take 200 us an update and
// drown it), then a checkpoint round. Tenants are queried at multiples of
// 1024 updates: publish boundaries.
void Checkpoint(Client* client, uint64_t seed) {
  const std::vector<Tenant>& fleet = client->fleet();
  ZipfFeed feed(0.8, kZipfPool, seed);
  for (size_t j = 0; j < kFillF0Batches; ++j) {
    for (size_t t = 0; t < fleet.size(); ++t) {
      const size_t batches =
          fleet[t].task == rs::Task::kF0 ? kFillF0Batches : kFillFpBatches;
      if (j < batches) {
        client->BatchStep(t, feed.Take(kFillBatch), kFillBatch,
                          (j + 1) % kFillQueryEvery == 0, /*timed=*/false);
      }
    }
  }
  client->StartClock();
  for (size_t r = 0; r < kMinCheckpointRounds || client->Running(); ++r) {
    for (size_t i = 0; i < kRoundUpdates; ++i) {
      // Every 4th round ends on a multiple of 1024 updates per tenant.
      const bool query = r % 4 == 3 && i + 1 == kRoundUpdates;
      for (size_t t = 0; t < fleet.size(); ++t) {
        if (fleet[t].task != rs::Task::kF0) continue;
        client->UpdateStep(t, *feed.Take(1), query);
      }
    }
    client->CheckpointRound();
    client->CountStep();
  }
}

}  // namespace

void RunResult::Fail(std::string problem) {
  ++check_failures;
  if (problems.size() < kMaxProblems) problems.push_back(std::move(problem));
}

std::vector<Tenant> Fleet(std::string_view workload, uint64_t seed) {
  std::vector<Tenant> fleet;
  if (workload == "fp_ingest") {
    // Engine defaults: 4 shards, a gate every 1024 updates.
    for (size_t i = 0; i < kTenants; ++i) {
      const double p = i < kTenants / 2 ? 2.0 : 1.0;
      AddTenant(&fleet, Numbered(p == 2.0 ? "fp2-" : "fp1-", i), rs::Task::kFp,
                p, 4, 1024, seed);
    }
  } else if (workload == "f0_adaptive") {
    // One shard and a gate per update: every Query answers for the update
    // just made.
    for (size_t i = 0; i < kTenants; ++i) {
      AddTenant(&fleet, Numbered("f0-", i), rs::Task::kF0, 1.0, 1, 1, seed);
    }
  } else if (workload == "checkpoint") {
    for (size_t i = 0; i < kTenants; ++i) {
      AddTenant(&fleet, Numbered("f0-", i), rs::Task::kF0, 1.0, 4, 1024, seed);
    }
    for (size_t i = 0; i < kTenants; ++i) {
      AddTenant(&fleet, Numbered("fp2-", i), rs::Task::kFp, 2.0, 4, 1024,
                seed);
    }
  }
  return fleet;
}

rs::RobustConfig EngineConfig(const Tenant& tenant) {
  rs::RobustConfig c = tenant.config;
  c.engine.task = tenant.task;
  c.engine.shards = std::max<size_t>(1, c.engine.shards);
  return c;
}

double TimeSetUp(const std::vector<Tenant>& fleet, RunResult* out) {
  StreamHub hub;
  return CreateFleet(fleet, &hub, out);
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult out;
  Client client(options, Fleet(options.workload, options.seed), &out);
  client.CreateFleet();
  const uint64_t input_seed = rs::SplitMix64(options.seed ^ 0x1D47A);
  if (options.workload == "checkpoint") {
    Checkpoint(&client, input_seed);
  } else {
    if (options.workload == "fp_ingest") {
      IngestZipf(&client, input_seed);
    } else {
      PlayAdaptive(&client);
    }
    client.FinishRounds();
  }
  client.Summarize();
  return out;
}

}  // namespace perfbench
