#include "replay.h"

#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "rs/engine/sharded.h"
#include "rs/hash/kwise.h"
#include "rs/hash/tabulation.h"
#include "rs/io/sketch_codec.h"
#include "rs/runtime/stream_hub.h"
#include "rs/sketch/kmv_f0.h"
#include "rs/sketch/pstable_fp.h"
#include "rs/util/rng.h"
#include "stats.h"

namespace perfbench {

namespace {

using rs::runtime::StreamHub;
using Engines = std::vector<std::unique_ptr<rs::RobustEstimator>>;
// One tenant's base sketches, [copy][shard], as the engine lays them out.
using Bases = std::vector<std::vector<std::unique_ptr<rs::MergeableEstimator>>>;

constexpr size_t kCheckpointRounds = 5;
constexpr size_t kReplayWindows = 32;
// The stacked passes; each (window, pass) span carries the pass's name.
enum Pass : size_t {
  kHub,
  kHubUpdates,
  kEngine,
  kEngineUpdates,
  kSketch,
  kHash,
  kPasses
};
constexpr const char* kPassNames[kPasses] = {
    "replay.hub", "replay.hub.updates", "replay.engine",
    "replay.engine.updates", "replay.sketch", "replay.hash"};

// Keeps a timed loop's result observable, so the loop is not optimised
// away.
inline void Keep(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// TryMakeShardedRobust builds a ShardedRobust behind the RobustEstimator
// interface (the hub relies on the same fact).
const rs::ShardedRobust& AsEngine(const rs::RobustEstimator& e) {
  return static_cast<const rs::ShardedRobust&>(e);
}

double PerUnit(double seconds, double scale, double units) {
  return units > 0.0 ? seconds * scale / units : 0.0;
}

class Replayer {
 public:
  Replayer(const std::vector<Tenant>& fleet, const RunResult& recorded,
           Tracer* tracer, int parent, RunResult* checks)
      : fleet_(fleet),
        recorded_(recorded),
        rec_(recorded.recording),
        tracer_(tracer),
        checks_(checks),
        parent_(parent),
        replay_span_(tracer->Begin("replay", parent)) {
    for (const Tenant& t : fleet_) {
      sizing_.push_back(rs::ShardedSizingFor(EngineConfig(t)));
    }
  }

  std::vector<Metric> Run() {
    // Every pass keeps its own state and replays the whole recording.
    std::unique_ptr<StreamHub> hub = NewHub();
    std::unique_ptr<StreamHub> hub_updates = NewHub();
    Engines twins = NewEngines();
    Engines twins_updates = NewEngines();
    if (twins.size() != fleet_.size() ||
        twins_updates.size() != fleet_.size()) {
      return {};
    }
    std::vector<Bases> bases = NewBases();
    Hashes hashes = NewHashes();
    Route(twins);
    CountGates();

    // The passes run in step: each window of the recording goes through
    // every pass (in an order that rotates per window) before the next
    // window starts, so a slow spell of the host lands on all passes
    // alike instead of on whichever pass it happened to overlap.
    std::vector<double> hub_answers;
    std::vector<double> engine_answers;
    hub_answers.reserve(rec_.answers.size());
    engine_answers.reserve(rec_.answers.size());
    const size_t calls = rec_.calls.size();
    for (size_t w = 0; w < kReplayWindows; ++w) {
      const size_t begin = calls * w / kReplayWindows;
      const size_t end = calls * (w + 1) / kReplayWindows;
      const ScopedSpan window(tracer_, "replay.window", replay_span_);
      for (size_t k = 0; k < kPasses; ++k) {
        switch ((w + k) % kPasses) {
          case kHub:
            HubCalls(hub.get(), begin, end, &hub_answers, kHub, window.id());
            break;
          case kHubUpdates:
            HubCalls(hub_updates.get(), begin, end, nullptr, kHubUpdates,
                     window.id());
            break;
          case kEngine:
            EngineCalls(twins, begin, end, &engine_answers, kEngine,
                        window.id());
            break;
          case kEngineUpdates:
            EngineCalls(twins_updates, begin, end, nullptr, kEngineUpdates,
                        window.id());
            break;
          case kSketch:
            SketchCalls(&bases, begin, end, window.id());
            break;
          case kHash:
            HashCalls(hashes, begin, end, window.id());
            break;
        }
      }
    }
    GatePass(bases);
    tracer_->End(replay_span_);
    for (size_t pass = 0; pass < kPasses; ++pass) {
      if (consumed_[pass] != rec_.updates.size()) {
        checks_->Fail(std::string(kPassNames[pass]) + " consumed " +
                      std::to_string(consumed_[pass]) + " updates of " +
                      std::to_string(rec_.updates.size()) + " recorded");
      }
    }
    CheckAnswers("hub", hub_answers);
    CheckAnswers("twin engine", engine_answers);
    for (size_t t = 0; t < fleet_.size(); ++t) {
      const auto q = hub->Query(fleet_[t].name);
      Count(q.ok() ? rs::Status::Ok() : q.status(), "StreamHub::Query");
      if (q.ok() && q->estimate != twins[t]->Estimate()) {
        checks_->Fail("twin engine " + fleet_[t].name +
                      " ends on another estimate than the replayed hub");
      }
    }
    uint64_t flips = 0;
    for (const auto& twin : twins) flips += twin->GuaranteeStatus().flips_spent;
    if (flips != recorded_.flips) {
      checks_->Fail("twin engines spent " + std::to_string(flips) +
                    " flips, the hub " + std::to_string(recorded_.flips));
    }

    hub_updates.reset();
    twins_updates.clear();
    CheckpointPasses(hub.get(), twins, bases);
    return Metrics(flips);
  }

 private:
  void Count(const rs::Status& st, const char* what) {
    checks_->attempted += 1;
    if (!st.ok()) {
      checks_->failed += 1;
      checks_->Fail(std::string("replay ") + what + ": " + st.ToString());
    }
  }

  void CheckAnswers(const char* who, const std::vector<double>& answers) {
    size_t mismatches = answers.size() == rec_.answers.size() ? 0 : 1;
    for (size_t i = 0; i < answers.size() && i < rec_.answers.size(); ++i) {
      if (answers[i] != rec_.answers[i]) ++mismatches;
    }
    if (mismatches != 0) {
      checks_->Fail(std::string(who) + " replay: " +
                    std::to_string(mismatches) + " of " +
                    std::to_string(rec_.answers.size()) +
                    " answers differ from the recorded hub answers");
    }
  }

  std::unique_ptr<StreamHub> NewHub() {
    auto hub = std::make_unique<StreamHub>();
    for (const Tenant& t : fleet_) {
      Count(hub->CreateStream(t.name, t.task, t.config, t.seed),
            "CreateStream");
    }
    return hub;
  }

  Engines NewEngines() {
    Engines engines;
    for (const Tenant& t : fleet_) {
      auto made = rs::TryMakeShardedRobust(EngineConfig(t), t.seed);
      Count(made.status(), "TryMakeShardedRobust");
      if (!made.ok()) return {};
      engines.push_back(std::move(made).value());
    }
    return engines;
  }

  // The base sketch TryMakeShardedRobust's factory builds for tenant t.
  std::unique_ptr<rs::MergeableEstimator> NewBase(size_t t, uint64_t seed) {
    if (fleet_[t].task == rs::Task::kF0) {
      return std::make_unique<rs::KmvF0>(rs::KmvF0::Config{sizing_[t].base_k},
                                         seed);
    }
    rs::PStableFp::Config ps;
    ps.p = fleet_[t].config.fp.p;
    ps.eps = sizing_[t].base_eps;
    return std::make_unique<rs::PStableFp>(ps, seed);
  }

  // Copy c starts from the seed the engine gives its c-th initial copy;
  // every shard of a copy shares it, as in the engine.
  static uint64_t CopySeed(const Tenant& t, size_t c) {
    return rs::SplitMix64(t.seed + c + 1);
  }

  std::vector<Bases> NewBases() {
    std::vector<Bases> bases(fleet_.size());
    for (size_t t = 0; t < fleet_.size(); ++t) {
      bases[t].resize(sizing_[t].copies);
      for (size_t c = 0; c < sizing_[t].copies; ++c) {
        for (size_t s = 0; s < sizing_[t].shards; ++s) {
          bases[t][c].push_back(NewBase(t, CopySeed(fleet_[t], c)));
        }
      }
    }
    return bases;
  }

  // Splits every recorded update-carrying call into the per-shard runs the
  // engine's router (ShardOf) makes, off the clock.
  void Route(const Engines& twins) {
    route_.assign(rec_.calls.size(), 0);
    for (size_t i = 0; i < rec_.calls.size(); ++i) {
      const Call& c = rec_.calls[i];
      if (c.kind == Call::kQuery) continue;
      const rs::ShardedRobust& engine = AsEngine(*twins[c.tenant]);
      route_[i] = offsets_.size();
      for (size_t s = 0; s < engine.shards(); ++s) {
        offsets_.push_back(routed_.size());
        for (size_t j = c.begin; j < c.begin + c.count; ++j) {
          if (engine.ShardOf(rec_.updates[j].item) == s) {
            routed_.push_back(rec_.updates[j]);
          }
        }
      }
      offsets_.push_back(routed_.size());
    }
  }

  // Gates the engine runs on the recorded calls: one whenever its update
  // count since the last gate reaches merge_period.
  void CountGates() {
    gates_.assign(fleet_.size(), 0);
    std::vector<size_t> since(fleet_.size(), 0);
    for (const Call& c : rec_.calls) {
      if (c.count == 0) continue;
      since[c.tenant] += c.count;
      if (since[c.tenant] >= fleet_[c.tenant].config.engine.merge_period) {
        ++gates_[c.tenant];
        since[c.tenant] = 0;
      }
    }
  }

  void HubCalls(StreamHub* hub, size_t begin, size_t end,
                std::vector<double>* answers, Pass pass, int parent) {
    uint64_t consumed = 0;
    uint64_t calls = 0;
    uint64_t failed = 0;
    {
      const ScopedSpan timed(tracer_, kPassNames[pass], parent);
      for (size_t i = begin; i < end; ++i) {
        const Call& c = rec_.calls[i];
        const std::string& name = fleet_[c.tenant].name;
        switch (c.kind) {
          case Call::kBatch:
            failed += !hub->UpdateBatch(name, &rec_.updates[c.begin], c.count)
                           .ok();
            consumed += c.count;
            ++calls;
            break;
          case Call::kUpdate:
            failed += !hub->Update(name, rec_.updates[c.begin]).ok();
            consumed += 1;
            ++calls;
            break;
          case Call::kQuery:
            if (answers != nullptr) {
              const auto q = hub->Query(name);
              if (q.ok()) {
                answers->push_back(q->estimate);
              } else {
                ++failed;
              }
              ++calls;
            }
            break;
        }
      }
    }
    consumed_[pass] += consumed;
    checks_->attempted += calls;
    checks_->failed += failed;
    if (failed != 0) {
      checks_->Fail(std::string(kPassNames[pass]) + ": hub calls failed");
    }
  }

  void EngineCalls(const Engines& twins, size_t begin, size_t end,
                   std::vector<double>* answers, Pass pass, int parent) {
    uint64_t consumed = 0;
    uint64_t sink = 0;
    {
      const ScopedSpan timed(tracer_, kPassNames[pass], parent);
      for (size_t i = begin; i < end; ++i) {
        const Call& c = rec_.calls[i];
        rs::RobustEstimator& engine = *twins[c.tenant];
        switch (c.kind) {
          case Call::kBatch:
            engine.UpdateBatch(&rec_.updates[c.begin], c.count);
            consumed += c.count;
            break;
          case Call::kUpdate:
            engine.Update(rec_.updates[c.begin]);
            consumed += 1;
            break;
          case Call::kQuery:
            if (answers != nullptr) {
              // What the hub's Query asks of its engine.
              answers->push_back(engine.Estimate());
              sink += engine.GuaranteeStatus().flips_spent +
                      engine.output_changes();
            }
            break;
        }
      }
    }
    Keep(sink);
    consumed_[pass] += consumed;
  }

  void SketchCalls(std::vector<Bases>* bases, size_t begin, size_t end,
                   int parent) {
    uint64_t consumed = 0;
    {
      const ScopedSpan timed(tracer_, kPassNames[kSketch], parent);
      for (size_t i = begin; i < end; ++i) {
        const Call& c = rec_.calls[i];
        if (c.kind == Call::kQuery) continue;
        Bases& copies = (*bases)[c.tenant];
        const size_t* off = &offsets_[route_[i]];
        for (size_t s = 0; s < copies[0].size(); ++s) {
          const size_t n = off[s + 1] - off[s];
          if (n == 0) continue;
          const rs::Update* run = &routed_[off[s]];
          if (c.kind == Call::kUpdate) {
            for (auto& copy : copies) copy[s]->Update(*run);
          } else {
            for (auto& copy : copies) copy[s]->UpdateBatch(run, n);
          }
          consumed += n;
        }
      }
    }
    consumed_[kSketch] += consumed;
  }

  // The engine gate's sketch work (merge the active copy's shards, then
  // Estimate), run as often as the engine gated, on each tenant's copy 0.
  void GatePass(const std::vector<Bases>& bases) {
    uint64_t sink = 0;
    {
      const ScopedSpan timed(tracer_, "replay.gate", replay_span_);
      for (size_t t = 0; t < bases.size(); ++t) {
        const auto& copy = bases[t][0];
        for (uint64_t g = 0; g < gates_[t]; ++g) {
          if (copy.size() == 1) {
            sink += Bits(copy[0]->Estimate());
            continue;
          }
          std::unique_ptr<rs::MergeableEstimator> merged = copy[0]->Clone();
          for (size_t s = 1; s < copy.size(); ++s) merged->Merge(*copy[s]);
          sink += Bits(merged->Estimate());
        }
      }
    }
    Keep(sink);
  }

  // Each copy's hash function: tabulation for the p-stable bases, 8-wise
  // polynomial hashing for KMV.
  struct Hashes {
    std::vector<std::vector<rs::TabulationHash>> tabulation;
    std::vector<std::vector<rs::KWiseHash>> kwise;
  };

  Hashes NewHashes() const {
    Hashes h;
    h.tabulation.resize(fleet_.size());
    h.kwise.resize(fleet_.size());
    for (size_t t = 0; t < fleet_.size(); ++t) {
      for (size_t c = 0; c < sizing_[t].copies; ++c) {
        if (fleet_[t].task == rs::Task::kF0) {
          h.kwise[t].emplace_back(8, CopySeed(fleet_[t], c));
        } else {
          h.tabulation[t].emplace_back(CopySeed(fleet_[t], c));
        }
      }
    }
    return h;
  }

  // Every recorded item through each of its tenant's copy hashes.
  void HashCalls(const Hashes& hashes, size_t begin, size_t end, int parent) {
    uint64_t consumed = 0;
    uint64_t sink = 0;
    {
      const ScopedSpan timed(tracer_, kPassNames[kHash], parent);
      for (size_t i = begin; i < end; ++i) {
        const Call& c = rec_.calls[i];
        if (c.kind == Call::kQuery) continue;
        const rs::Update* ups = &rec_.updates[c.begin];
        for (const rs::KWiseHash& h : hashes.kwise[c.tenant]) {
          for (size_t j = 0; j < c.count; ++j) sink ^= h(ups[j].item);
        }
        for (const rs::TabulationHash& h : hashes.tabulation[c.tenant]) {
          for (size_t j = 0; j < c.count; ++j) sink ^= h(ups[j].item);
        }
        consumed += c.count;
      }
    }
    Keep(sink);
    consumed_[kHash] += consumed;
  }

  // Snapshot and Restore at each layer, on the replayed end state.
  void CheckpointPasses(StreamHub* hub, const Engines& twins,
                        const std::vector<Bases>& bases) {
    const int parent = tracer_->Begin("checkpoint", parent_);
    std::vector<const rs::MergeableEstimator*> kmv;
    std::vector<const rs::MergeableEstimator*> pstable;
    for (size_t t = 0; t < bases.size(); ++t) {
      auto& list = fleet_[t].task == rs::Task::kF0 ? kmv : pstable;
      for (const auto& copy : bases[t]) {
        for (const auto& sub : copy) list.push_back(sub.get());
      }
    }
    subsketches_ = kmv.size() + pstable.size();

    std::string envelope;
    std::vector<std::string> engine_bytes(twins.size());
    std::vector<std::string> kmv_bytes(kmv.size());
    std::vector<std::string> pstable_bytes(pstable.size());
    for (size_t r = 0; r < kCheckpointRounds; ++r) {
      rs::Status st = rs::Status::Ok();
      {
        ScopedSpan timed(tracer_, "checkpoint.hub.snapshot", parent);
        st = hub->Snapshot(&envelope);
      }
      Count(st, "StreamHub::Snapshot");
      {
        auto standby = std::make_unique<StreamHub>();
        {
          ScopedSpan timed(tracer_, "checkpoint.hub.restore", parent);
          st = standby->Restore(envelope);
        }
        Count(st, "StreamHub::Restore");
      }

      {
        ScopedSpan timed(tracer_, "checkpoint.engine.snapshot", parent);
        for (size_t t = 0; t < twins.size(); ++t) {
          engine_bytes[t].clear();
          AsEngine(*twins[t]).Snapshot(&engine_bytes[t]);
        }
      }
      Engines fresh(twins.size());
      {
        ScopedSpan timed(tracer_, "checkpoint.engine.construct", parent);
        for (size_t t = 0; t < fleet_.size(); ++t) {
          auto made = rs::TryMakeShardedRobust(EngineConfig(fleet_[t]),
                                               fleet_[t].seed);
          if (made.ok()) fresh[t] = std::move(made).value();
        }
      }
      uint64_t restore_failures = 0;
      {
        ScopedSpan timed(tracer_, "checkpoint.engine.restore", parent);
        for (size_t t = 0; t < fresh.size(); ++t) {
          if (fresh[t] == nullptr) {
            ++restore_failures;
            continue;
          }
          restore_failures +=
              !static_cast<rs::ShardedRobust&>(*fresh[t])
                   .Restore(engine_bytes[t])
                   .ok();
        }
      }
      checks_->attempted += fresh.size();
      if (restore_failures != 0) {
        checks_->failed += restore_failures;
        checks_->Fail("replay: engine construct/Restore failed");
      }

      Serialize("io.serialize.kmv", kmv, &kmv_bytes, parent);
      Serialize("io.serialize.pstable", pstable, &pstable_bytes, parent);
      Deserialize("io.deserialize.kmv", kmv_bytes, parent);
      Deserialize("io.deserialize.pstable", pstable_bytes, parent);
    }
    tracer_->End(parent);
  }

  void Serialize(const char* span,
                 const std::vector<const rs::MergeableEstimator*>& sketches,
                 std::vector<std::string>* bytes, int parent) {
    ScopedSpan timed(tracer_, span, parent);
    for (size_t i = 0; i < sketches.size(); ++i) {
      (*bytes)[i].clear();
      sketches[i]->Serialize(&(*bytes)[i]);
    }
  }

  void Deserialize(const char* span, const std::vector<std::string>& bytes,
                   int parent) {
    std::vector<std::unique_ptr<rs::MergeableEstimator>> decoded;
    decoded.reserve(bytes.size());
    uint64_t failures = 0;
    {
      ScopedSpan timed(tracer_, span, parent);
      for (const std::string& b : bytes) {
        auto sketch = rs::DeserializeSketch(b);
        if (sketch.ok()) {
          decoded.push_back(std::move(sketch).value());
        } else {
          ++failures;
        }
      }
    }
    if (failures != 0) checks_->Fail(std::string(span) + ": decode failed");
  }

  double MedianMs(std::string_view span) const {
    return Median(tracer_->Durations(span)) * 1e3;
  }

  std::vector<Metric> Metrics(uint64_t flips) const {
    const double updates = static_cast<double>(rec_.updates.size());
    const double steps = static_cast<double>(rec_.steps);
    double queries = 0.0;
    double update_calls = 0.0;
    for (const Call& c : rec_.calls) {
      (c.kind == Call::kQuery ? queries : update_calls) += 1.0;
    }
    // Cells one update touches across a tenant's copies (a KMV update
    // offers one hash, a p-stable update writes k counters), weighted by
    // each tenant's share of the updates.
    std::vector<double> tenant_updates(fleet_.size(), 0.0);
    for (const Call& c : rec_.calls) tenant_updates[c.tenant] += c.count;
    double cells = 0.0;
    double gates = 0.0;
    for (size_t t = 0; t < fleet_.size(); ++t) {
      const double per_copy =
          fleet_[t].task == rs::Task::kF0 ? 1.0 : sizing_[t].base_k;
      cells += tenant_updates[t] * per_copy * sizing_[t].copies;
      gates += static_cast<double>(gates_[t]);
    }

    const double hub = tracer_->Total(kPassNames[kHub]);
    const double hub_updates = tracer_->Total(kPassNames[kHubUpdates]);
    const double engine = tracer_->Total(kPassNames[kEngine]);
    const double engine_updates = tracer_->Total(kPassNames[kEngineUpdates]);
    const double sketch = tracer_->Total(kPassNames[kSketch]);
    const double gate = tracer_->Total("replay.gate");
    const double hash = tracer_->Total(kPassNames[kHash]);
    const double hub_snapshot = MedianMs("checkpoint.hub.snapshot");
    const double hub_restore = MedianMs("checkpoint.hub.restore");
    const double engine_snapshot = MedianMs("checkpoint.engine.snapshot");
    const double construct = MedianMs("checkpoint.engine.construct");
    const double engine_restore = MedianMs("checkpoint.engine.restore");

    return {
        {"hash.ns_per_update", PerUnit(hash, 1e9, updates), "ns"},
        {"sketch.ns_per_update", PerUnit(sketch, 1e9, updates), "ns"},
        {"sketch.cells_per_update", updates > 0 ? cells / updates : 0.0,
         "count"},
        {"sketch.gate_us", PerUnit(gate, 1e6, gates), "us"},
        {"engine.ns_per_update", PerUnit(engine_updates, 1e9, updates), "ns"},
        {"engine.self_ns_per_update",
         PerUnit(SelfTime(engine_updates, sketch), 1e9, updates), "ns"},
        {"runtime.self_ns_per_update",
         PerUnit(SelfTime(hub_updates, engine_updates), 1e9, updates), "ns"},
        {"hash.ns_per_step", PerUnit(hash, 1e9, steps), "ns"},
        {"sketch.ns_per_step", PerUnit(sketch, 1e9, steps), "ns"},
        {"engine.ns_per_step", PerUnit(engine, 1e9, steps), "ns"},
        {"engine.self_ns_per_step",
         PerUnit(SelfTime(engine, sketch), 1e9, steps), "ns"},
        {"engine.gates", gates, "count"},
        {"engine.flips", static_cast<double>(flips), "count"},
        {"engine.gate_yield", gates > 0 ? static_cast<double>(flips) / gates
                                        : 0.0,
         "ratio"},
        {"runtime.update_self_ns",
         PerUnit(SelfTime(hub_updates, engine_updates), 1e9, update_calls),
         "ns"},
        {"runtime.query_self_ns",
         PerUnit(SelfTime(hub - hub_updates, engine - engine_updates), 1e9,
                 queries),
         "ns"},
        {"engine.snapshot_ms", engine_snapshot, "ms"},
        {"runtime.snapshot_self_ms", SelfTime(hub_snapshot, engine_snapshot),
         "ms"},
        {"engine.construct_ms", construct, "ms"},
        {"engine.restore_ms", engine_restore, "ms"},
        {"runtime.restore_self_ms",
         SelfTime(hub_restore, construct + engine_restore), "ms"},
        {"io.serialize_ms.kmv", MedianMs("io.serialize.kmv"), "ms"},
        {"io.serialize_ms.pstable", MedianMs("io.serialize.pstable"), "ms"},
        {"io.deserialize_ms.kmv", MedianMs("io.deserialize.kmv"), "ms"},
        {"io.deserialize_ms.pstable", MedianMs("io.deserialize.pstable"),
         "ms"},
        {"io.subsketches", static_cast<double>(subsketches_), "count"},
        {"trace.overhead_pct",
         rec_.busy_s > 0.0 ? SelfTime(hub, rec_.busy_s) / rec_.busy_s * 100.0
                           : 0.0,
         "%"},
    };
  }

  const std::vector<Tenant>& fleet_;
  const RunResult& recorded_;
  const Recording& rec_;
  Tracer* tracer_;
  RunResult* checks_;
  int parent_;
  int replay_span_;
  std::vector<rs::ShardedSizing> sizing_;
  // Route(): per-shard runs of every update-carrying call. route_[i] is
  // the index in offsets_ of call i's first run boundary.
  std::vector<rs::Update> routed_;
  std::vector<size_t> offsets_;
  std::vector<size_t> route_;
  std::vector<uint64_t> gates_;
  uint64_t consumed_[kPasses] = {};  // Updates each pass consumed.
  size_t subsketches_ = 0;
};

}  // namespace

std::vector<Metric> Replay(const std::vector<Tenant>& fleet,
                           const RunResult& recorded, Tracer* tracer,
                           int parent_span, RunResult* checks) {
  return Replayer(fleet, recorded, tracer, parent_span, checks).Run();
}

}  // namespace perfbench
