// The `materialize` workload and the build-side layer measurements.
//
// One pass builds the relational specifications of four programs and runs
// algorithm BT twice, single-threaded, with no server:
//   path/256   join-heavy, inflationary (p = 1), few rounds;
//   ski        the paper's full-year flight schedule;
//   rings/6    progressive: a 30030-step forward detector, tiny deltas;
//   rings/5 + `seen(X) :- tok(T, X).`  non-progressive: verified doubling;
//   BT path/256 at the inflationary bound, BT even(100000) (per-round cost).
// Every built spec is checked against closed forms computed independently
// of the engine, and every BT answer against spec Ask and the closed form.
// The untraced run reports each job's best time over its passes: the six
// jobs are the latency samples, build_ms and bt_ms sum their best times.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "eval/bt.h"
#include "query/query_parser.h"
#include "spec/period.h"
#include "spec/specification.h"
#include "util/metrics.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using chronolog::BuildSpecification;
using chronolog::EvalStats;
using chronolog::GroundAtom;
using chronolog::ParsedUnit;
using chronolog::RelationalSpecification;

/// The closed-form shape of a specification: (b, p, c, |T|, |B|).
struct SpecShape {
  int64_t b = 0, p = 0, c = 0, reps = 0;
  int64_t facts = 0;
};

std::string ShapeString(const SpecShape& s) {
  return "(b=" + std::to_string(s.b) + ", p=" + std::to_string(s.p) +
         ", c=" + std::to_string(s.c) + ", |T|=" + std::to_string(s.reps) +
         ", |B|=" + std::to_string(s.facts) + ")";
}

SpecShape ShapeOf(const RelationalSpecification& spec) {
  return {spec.period().b, spec.period().p, spec.c(),
          spec.num_representatives(),
          static_cast<int64_t>(spec.SizeInFacts())};
}

/// Token rings over coprime lengths: one token per ring cycles with period
/// lcm = product, from time 0; B holds one token per ring per
/// representative plus the ring edges (and `seen` of every ring node).
SpecShape RingsShape(int k, bool seen) {
  const std::vector<int> primes = FirstPrimes(k);
  const int64_t p = std::accumulate(primes.begin(), primes.end(), int64_t{1},
                                    std::multiplies<int64_t>());
  const int64_t nodes =
      std::accumulate(primes.begin(), primes.end(), int64_t{0});
  return {0, p, 0, p, k * p + nodes + (seen ? nodes : 0)};
}

/// The ski schedule simulated day by day (all resorts fly alike). Seasons
/// repeat every 365 days, so the period is a multiple of 365; the smallest
/// multiple whose plane days agree from some day on, with a long tail of
/// evidence, is the minimal period.
SpecShape SkiShape() {
  constexpr int kYear = 365, kWinter = 91, kHolidays = 13, kResorts = 4;
  constexpr int64_t kHorizon = 365 * 60;
  std::vector<char> plane(kHorizon + 8, 0);
  plane[0] = 1;
  for (int64_t t = 0; t < kHorizon; ++t) {
    if (!plane[t]) continue;
    const int64_t d = t % kYear;
    if (d >= kWinter) plane[t + 7] = 1;
    if (d < kWinter) plane[t + 2] = 1;
    if (d < kHolidays) plane[t + 1] = 1;
  }
  SpecShape shape;
  shape.c = kYear - 1;  // offseason(91..364) is the deepest database fact
  for (int64_t p = kYear; p <= 16 * kYear; p += kYear) {
    int64_t start = 0;
    for (int64_t t = kHorizon - p - 1; t >= 0; --t) {
      if (plane[t] != plane[t + p]) {
        start = t + 1;
        break;
      }
    }
    if (kHorizon - p - start >= 4 * p) {
      shape.p = p;
      shape.b = std::max<int64_t>(0, start - shape.c);
      break;
    }
  }
  shape.reps = shape.b + shape.c + shape.p;
  shape.facts = kResorts;  // resort(X)
  for (int64_t t = 0; t < shape.reps; ++t) {
    const int64_t d = t % kYear;
    shape.facts += (d < kWinter) + (d >= kWinter) + (d < kHolidays) +
                   kResorts * plane[t];
  }
  return shape;
}

/// Path lengths by BFS over the generated edges: path(K, X, Y) holds iff Y
/// is reachable from X in at most K steps, so the states grow strictly up
/// to the largest finite distance D and are constant after it.
struct PathGraph {
  std::vector<std::vector<int>> dist;  // -1 = unreachable
  int edges = 0;                       // distinct edges
};

PathGraph AnalyzePathSource(const std::string& source) {
  std::vector<std::set<int>> out(kPathNodes);
  std::istringstream lines(source);
  std::string line;
  int edges = 0;
  while (std::getline(lines, line)) {
    int a = 0, b = 0;
    if (std::sscanf(line.c_str(), "edge(n%d, n%d).", &a, &b) == 2 &&
        out[a].insert(b).second) {
      ++edges;
    }
  }
  PathGraph graph;
  graph.edges = edges;
  graph.dist.assign(kPathNodes, std::vector<int>(kPathNodes, -1));
  for (int s = 0; s < kPathNodes; ++s) {
    std::deque<int> queue{s};
    graph.dist[s][s] = 0;
    while (!queue.empty()) {
      const int x = queue.front();
      queue.pop_front();
      for (int y : out[x]) {
        if (graph.dist[s][y] < 0) {
          graph.dist[s][y] = graph.dist[s][x] + 1;
          queue.push_back(y);
        }
      }
    }
  }
  return graph;
}

SpecShape PathShape(const PathGraph& graph) {
  int diameter = 0;
  std::vector<int64_t> at_distance(kPathNodes + 1, 0);
  for (const auto& row : graph.dist) {
    for (int d : row) {
      if (d < 0) continue;
      diameter = std::max(diameter, d);
      ++at_distance[d];
    }
  }
  SpecShape shape{diameter, 1, 0, diameter + 1, 0};
  int64_t within = 0;
  for (int k = 0; k <= diameter; ++k) {
    within += at_distance[k];
    shape.facts += within;
  }
  shape.facts += 1 + kPathNodes + graph.edges;  // null(0), node, edge
  return shape;
}

struct Case {
  std::string name;
  std::string source;
  ParsedUnit unit;
  SpecShape expected;
};

struct BtJob {
  std::string name;
  const ParsedUnit* unit;
  GroundAtom query;
  chronolog::BtOptions options;
  bool expected;
  /// Index into the pass's built specs whose Ask must agree (-1: `spec`).
  int spec_case;
  const RelationalSpecification* spec;
};

struct Inputs {
  std::vector<Case> cases;
  ParsedUnit even = MustParse(chronolog::workload::EvenSource());
  std::optional<RelationalSpecification> even_spec;
  std::vector<BtJob> bts;
  PathGraph graph;
};

GroundAtom MustParseAtom(const std::string& text, const ParsedUnit& unit) {
  auto atom = chronolog::ParseGroundAtom(text, unit.program.vocab());
  if (!atom.ok()) {
    std::fprintf(stderr, "perfbench: bad atom %s: %s\n", text.c_str(),
                 atom.status().ToString().c_str());
    std::exit(2);
  }
  return *atom;
}

/// The programs of one workload: the served three, or those plus the
/// non-progressive rings/5 + seen. Parsing happens here (the set-up).
void ParseInputs(bool serve_programs, Inputs* in) {
  in->cases.clear();
  in->cases.push_back({"path", PathSource(), MustParse(PathSource()), {}});
  in->cases.push_back({"ski", SkiSource(), MustParse(SkiSource()), {}});
  in->cases.push_back({"rings6", RingsSource(6), MustParse(RingsSource(6)), {}});
  if (!serve_programs) {
    const std::string seen = RingsSource(5) + "seen(X) :- tok(T, X).\n";
    in->cases.push_back({"rings5_seen", seen, MustParse(seen), {}});
  }
}

/// Closed forms and BT jobs (outside any timing).
void PrepareOracle(bool serve_programs, uint64_t seed, Inputs* in) {
  in->graph = AnalyzePathSource(in->cases[0].source);
  in->cases[0].expected = PathShape(in->graph);
  in->cases[1].expected = SkiShape();
  in->cases[2].expected = RingsShape(6, false);
  if (in->cases.size() > 3) in->cases[3].expected = RingsShape(5, true);

  std::mt19937_64 rng(seed ^ 0xB7B7ULL);
  const int a = static_cast<int>(rng() % kPathNodes);
  const int b = static_cast<int>(rng() % kPathNodes);
  constexpr int kBtDepth = 8;
  BtJob path_bt;
  path_bt.name = "bt_path";
  path_bt.unit = &in->cases[0].unit;
  path_bt.query = MustParseAtom("path(" + std::to_string(kBtDepth) + ", n" +
                                    std::to_string(a) + ", n" +
                                    std::to_string(b) + ")",
                                in->cases[0].unit);
  path_bt.options.range = kPathNodes + 2;  // inflationary saturation bound
  path_bt.options.num_threads = 1;
  const int d = in->graph.dist[a][b];
  path_bt.expected = d >= 0 && d <= kBtDepth;
  path_bt.spec_case = 0;
  path_bt.spec = nullptr;
  in->bts = {path_bt};
  if (!serve_programs) {
    auto even_spec = BuildSpecification(in->even.program, in->even.database);
    if (!even_spec.ok()) std::exit(2);
    in->even_spec.emplace(std::move(*even_spec));
    BtJob even_bt;
    even_bt.name = "bt_even";
    even_bt.unit = &in->even;
    even_bt.query = MustParseAtom("even(100000)", in->even);
    even_bt.options.range = 2;
    even_bt.options.num_threads = 1;
    even_bt.expected = true;
    even_bt.spec_case = -1;
    even_bt.spec = &*in->even_spec;
    in->bts.push_back(even_bt);
  }
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct PassTimes {
  double pass_ms = 0;
  /// Wall time of each job (spec builds, then BT runs), in input order.
  std::vector<double> job_ms;
  EvalStats stats;
  uint64_t allocations = 0;
};

/// One materialisation pass; every result is checked into `out`. With
/// `spans`, each public call is wrapped in a span under one pass span.
PassTimes RunPass(const Inputs& in, bool corrupt, Outcome* out,
                  SpanRecorder* spans, uint32_t pass_id,
                  std::vector<RelationalSpecification>* keep = nullptr) {
  PassTimes times;
  const uint64_t allocs0 = ThreadAllocations();
  const auto start = Clock::now();
  const int32_t root = spans ? spans->Begin("materialize.pass", pass_id) : -1;
  std::vector<RelationalSpecification> built;
  built.reserve(in.cases.size());
  for (const Case& c : in.cases) {
    const int32_t s = spans ? spans->Begin("spec.build", pass_id, root) : -1;
    chronolog::SpecificationBuildInfo info;
    const auto job_start = Clock::now();
    auto spec = BuildSpecification(c.unit.program, c.unit.database, {}, &info);
    times.job_ms.push_back(MillisSince(job_start));
    if (spans) spans->End(s);
    if (!spec.ok()) {
      out->Check(c.name + ": build failed: " + spec.status().ToString());
      continue;
    }
    times.stats.Add(info.stats);
    SpecShape want = c.expected;
    if (corrupt && c.name == "rings6") want.p += 1;
    const SpecShape got = ShapeOf(*spec);
    const bool same = got.b == want.b && got.p == want.p && got.c == want.c &&
                      got.reps == want.reps && got.facts == want.facts;
    out->Check(same ? "" : c.name + ": spec " + ShapeString(got) +
                               ", closed form " + ShapeString(want));
    built.push_back(std::move(*spec));
  }
  for (const BtJob& job : in.bts) {
    const int32_t s = spans ? spans->Begin("eval.bt", pass_id, root) : -1;
    const auto job_start = Clock::now();
    auto result = chronolog::RunBt(job.unit->program, job.unit->database,
                                   job.query, job.options);
    times.job_ms.push_back(MillisSince(job_start));
    if (spans) spans->End(s);
    if (!result.ok()) {
      out->Check(job.name + ": BT failed: " + result.status().ToString());
      continue;
    }
    times.stats.Add(result->stats);
    const RelationalSpecification* spec =
        job.spec_case >= 0 &&
                static_cast<std::size_t>(job.spec_case) < built.size()
            ? &built[static_cast<std::size_t>(job.spec_case)]
            : job.spec;
    const bool ask = spec != nullptr && spec->Ask(job.query);
    out->Check(result->answer == job.expected && ask == job.expected
                   ? ""
                   : job.name + ": BT " + std::to_string(result->answer) +
                         ", Ask " + std::to_string(ask) + ", closed form " +
                         std::to_string(job.expected));
  }
  if (spans) spans->End(root);
  times.allocations = ThreadAllocations() - allocs0;
  times.pass_ms = MillisSince(start);
  if (keep != nullptr) *keep = std::move(built);
  return times;
}

/// Wall times of parsing every program of the workload, `reps` times.
std::vector<double> MeasureSetup(int reps, Inputs* in) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    ParseInputs(false, in);
    in->even = MustParse(chronolog::workload::EvenSource());
    samples.push_back(SecondsSince(start));
  }
  return samples;
}

}  // namespace

void MeasureBuildLayers(bool serve_programs, uint64_t seed,
                        SpanRecorder* spans, Outcome* out) {
  Inputs in;
  ParseInputs(serve_programs, &in);
  PrepareOracle(serve_programs, seed, &in);

  constexpr int kReps = 3;
  std::vector<double> detect, construct, derive, merge, insert_ns, speed2,
      speed4;
  int64_t horizon = 0, doublings = 0;
  EvalStats stats;
  uint64_t allocations = 0;
  std::vector<RelationalSpecification> built;
  for (int rep = 0; rep < kReps; ++rep) {
    const uint32_t id = 1000 + static_cast<uint32_t>(rep);
    double detect_ms = 0, construct_ms = 0;
    int64_t rep_horizon = 0, rep_doublings = 0;
    for (const Case& c : in.cases) {
      const int32_t s = spans->Begin("spec.detect", id);
      auto detection = chronolog::DetectPeriod(c.unit.program, c.unit.database);
      detect_ms += static_cast<double>(spans->End(s)) / 1e6;
      if (!detection.ok()) {
        out->Check(c.name + ": detection failed");
        continue;
      }
      rep_horizon += detection->horizon;
      // (T, B, W) from the detection, as BuildSpecification constructs it:
      // B is the model truncated to the representative segment.
      const int32_t k = spans->Begin("spec.construct", id);
      chronolog::Interpretation primary = std::move(detection->model);
      primary.TruncateInPlace(detection->period.b + detection->c +
                              detection->period.p - 1);
      const RelationalSpecification spec(detection->period, detection->c,
                                         std::move(primary));
      construct_ms += static_cast<double>(spans->End(k)) / 1e6;
      const SpecShape got = ShapeOf(spec);
      out->Check(got.p == c.expected.p && got.facts == c.expected.facts
                     ? ""
                     : c.name + ": constructed spec " + ShapeString(got));
      // Doubling probes come from the detector's own counter, read from a
      // registry attached to an untimed second detection.
      chronolog::MetricsRegistry registry;
      chronolog::PeriodDetectionOptions metered;
      metered.metrics = &registry;
      if (chronolog::DetectPeriod(c.unit.program, c.unit.database, metered)
              .ok()) {
        rep_doublings += static_cast<int64_t>(
            registry.counter("period.doublings")->value());
      }
    }
    detect.push_back(detect_ms);
    construct.push_back(construct_ms);
    horizon = rep_horizon;
    doublings = rep_doublings;

    // The eval.* counters and allocations of one full pass (builds + BT).
    Outcome checks;
    const PassTimes pass = RunPass(in, false, &checks, spans, id, &built);
    out->attempted += checks.attempted;
    out->failed += checks.failed;
    for (const std::string& m : checks.mismatches) out->mismatches.push_back(m);
    stats = pass.stats;
    allocations = pass.allocations;
    derive.push_back(pass.stats.derive_ms);
    merge.push_back(pass.stats.merge_ms);

    // storage: replay every built B into a fresh Interpretation.
    struct Fact {
      chronolog::PredicateId pred;
      int64_t time;
      chronolog::Tuple args;
    };
    double ns = 0;
    uint64_t facts = 0;
    for (const RelationalSpecification& spec : built) {
      std::vector<Fact> all;
      spec.primary().ForEach([&](chronolog::PredicateId pred, int64_t time,
                                 const chronolog::Tuple& args) {
        all.push_back({pred, time, args});
      });
      chronolog::Interpretation fresh(spec.primary().vocab_ptr());
      const int32_t s = spans->Begin("storage.insert", id);
      for (const Fact& f : all) {
        fresh.Insert(f.pred, f.time, f.args.data(), f.args.size());
      }
      ns += static_cast<double>(spans->End(s));
      facts += all.size();
      if (fresh.size() != spec.primary().size()) {
        out->Check("storage replay lost facts");
      }
    }
    insert_ns.push_back(ns / static_cast<double>(std::max<uint64_t>(facts, 1)));

    // Thread scaling of BT on path/256 (informational).
    const BtJob& job = in.bts[0];
    double bt_ms[3] = {0, 0, 0};
    const int threads[3] = {1, 2, 4};
    for (int k = 0; k < 3; ++k) {
      chronolog::BtOptions options = job.options;
      options.num_threads = threads[k];
      const int32_t s = spans->Begin("eval.bt_threads", id);
      auto result = chronolog::RunBt(job.unit->program, job.unit->database,
                                     job.query, options);
      bt_ms[k] = static_cast<double>(spans->End(s)) / 1e6;
      out->Check(result.ok() && result->answer == job.expected
                     ? ""
                     : "BT at " + std::to_string(threads[k]) +
                           " threads disagrees");
    }
    speed2.push_back(bt_ms[0] / bt_ms[1]);
    speed4.push_back(bt_ms[0] / bt_ms[2]);
  }

  // spec.ask_ns: RelationalSpecification::Ask over the point stream's atoms.
  std::map<std::string, std::size_t> case_of = {
      {"path", 0}, {"ski", 1}, {"rings", 2}};
  std::vector<std::pair<const RelationalSpecification*, GroundAtom>> atoms;
  for (const auto& [db, text] : PointStream(seed, 4096)) {
    const std::size_t c = case_of[db];
    atoms.emplace_back(&built[c], MustParseAtom(text, in.cases[c].unit));
  }
  std::vector<double> ask;
  uint64_t yes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const int32_t s = spans->Begin("spec.ask", 2000);
    for (int k = 0; k < 64; ++k) {
      for (const auto& [spec, atom] : atoms) yes += spec->Ask(atom);
    }
    ask.push_back(static_cast<double>(spans->End(s)) /
                  static_cast<double>(64 * atoms.size()));
  }
  if (yes == 0) out->Check("no point atom holds");

  const double derived = static_cast<double>(std::max<uint64_t>(stats.derived, 1));
  out->Add("spec.detect_ms", Median(detect), "ms");
  out->Add("spec.construct_ms", Median(construct), "ms");
  out->Add("spec.detection_horizon", static_cast<double>(horizon), "count");
  out->Add("period.doublings", static_cast<double>(doublings), "count");
  out->Add("spec.ask_ns", Median(ask), "ns");
  out->Add("eval.derive_ms", Median(derive), "ms");
  out->Add("eval.merge_ms", Median(merge), "ms");
  out->Add("eval.match_steps", static_cast<double>(stats.match_steps), "count");
  out->Add("eval.derived", static_cast<double>(stats.derived), "count");
  out->Add("eval.inserted", static_cast<double>(stats.inserted), "count");
  out->Add("eval.insert_ratio", static_cast<double>(stats.inserted) / derived,
           "ratio");
  out->Add("eval.allocs_per_derived",
           static_cast<double>(allocations) / derived, "count");
  out->Add("storage.insert_ns_per_fact", Median(insert_ns), "ns");
  out->Add("eval.bt_speedup_2t", Median(speed2), "x");
  out->Add("eval.bt_speedup_4t", Median(speed4), "x");
}

Outcome RunMaterializeWorkload(const RunOptions& options) {
  Outcome out;
  Inputs in;
  // The set-up is parsing the programs; the first parses only warm the
  // allocator.
  MeasureSetup(5, &in);
  std::vector<double> setup_samples = MeasureSetup(20, &in);
  PrepareOracle(false, options.seed, &in);

  // Warm-up pass: lazy initialisation and allocator growth, not timed.
  RunPass(in, options.corrupt_oracle, &out, nullptr, 0);

  // Set-up (parsing) is also sampled after every pass, so its median spans
  // the run rather than one moment of it.
  Inputs reparsed;
  auto run_passes = [&](double seconds, SpanRecorder* spans,
                        std::vector<PassTimes>* passes) {
    const auto start = Clock::now();
    uint32_t id = 1;
    while (SecondsSince(start) < seconds || passes->size() < 3) {
      passes->push_back(
          RunPass(in, options.corrupt_oracle, &out, spans, id++));
      const std::vector<double> more = MeasureSetup(3, &reparsed);
      setup_samples.insert(setup_samples.end(), more.begin(), more.end());
    }
  };
  auto pass_ms = [](const std::vector<PassTimes>& passes) {
    std::vector<double> v;
    for (const PassTimes& p : passes) v.push_back(p.pass_ms);
    return v;
  };

  if (!options.trace) {
    std::vector<PassTimes> passes;
    run_passes(options.seconds, nullptr, &passes);
    // Every figure is a best-of-run time: this host slows by up to 1.6x in
    // episodes of seconds to minutes, so a median over passes jumps with
    // the share of the run an episode happens to cover, while each job's
    // fastest run is least exposed to it.
    std::vector<double> job_best = passes.front().job_ms;
    for (const PassTimes& p : passes) {
      const std::size_t jobs = std::min(job_best.size(), p.job_ms.size());
      for (std::size_t j = 0; j < jobs; ++j) {
        job_best[j] = std::min(job_best[j], p.job_ms[j]);
      }
    }
    // Jobs run builds first, then BT runs.
    const std::size_t builds = in.cases.size();
    double build_ms = 0, bt_ms = 0;
    for (std::size_t j = 0; j < job_best.size(); ++j) {
      (j < builds ? build_ms : bt_ms) += job_best[j];
    }
    // An operation here is one job (a spec build or a BT run): its latency
    // is the job's best time, and the rate is jobs per second at those times.
    out.Add("qps",
            static_cast<double>(job_best.size()) * 1e3 / (build_ms + bt_ms),
            "1/s");
    out.Add("latency_p50_ms", Median(job_best), "ms");
    out.Add("latency_p99_ms", Quantile(job_best, 0.99), "ms");
    out.notes.push_back("latency samples: " + std::to_string(job_best.size()) +
                        " jobs, best of " + std::to_string(passes.size()) +
                        " passes");
    out.Add("build_ms", build_ms, "ms");
    out.Add("bt_ms", bt_ms, "ms");
    out.Add("setup_s", Median(setup_samples), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // Traced run: half the time untraced, half with spans around each call;
  // then the layer sweeps.
  SpanRecorder spans(1 << 16);
  std::vector<PassTimes> plain, traced;
  run_passes(options.seconds / 2, nullptr, &plain);
  run_passes(options.seconds / 2, &spans, &traced);
  const double plain_ms = Median(pass_ms(plain));
  const double traced_ms = Median(pass_ms(traced));
  MeasureBuildLayers(false, options.seed, &spans, &out);
  MeasureServeLayersProbe(options, &spans, &out);
  out.Add("trace.overhead_pct", (traced_ms - plain_ms) / plain_ms * 100.0,
          "%");
  if (!options.trace_out.empty()) {
    spans.WriteChromeTrace(options.trace_out, 20000);
  }
  return out;
}

}  // namespace perfbench
