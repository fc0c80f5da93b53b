// Serving workloads: serve::ServeEngine driven by closed-loop serve::LoadGen
// users on one rank with every intra-op thread.
//
//   serve-chat  48 users x 4 requests, prompts 8-32, 32-64 new tokens, half
//               sampled; 4-layer GPT (h = 256, vocab 2048) with a 128-token
//               window; ample KV. Decode-dominated, never evicts.
//   serve-long  the same model with a 1024-token window, 8 users x 1
//               request, prompts 384-768, 128-256 new tokens; the KV budget
//               holds ~5 of the 8 maximal sequences, so requests are
//               preempted and re-prefilled. Prefill- and attention-dominated.
//
// The request mix (lengths, arrivals, sampling settings) is each workload's
// fixed definition; --seed sets the model weights and with them every
// generated token. Every seed therefore schedules the same batches, and
// run-to-run spread measures the program, not the luck of the draw.
//
// The timed window replays the load round after round (a fresh engine each
// round) until the time is up. The scheduler is deterministic, so every
// round must produce the same tokens; a seeded sample of requests is also
// checked against the full-forward oracle outside the window.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ptdp/model/generate.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/serve/loadgen.hpp"
#include "workloads.hpp"

namespace ptdpbench {

using namespace ptdp;

model::GptConfig serving_model(std::int64_t window, std::uint64_t seed) {
  model::GptConfig c;
  c.num_layers = 4;
  c.hidden = 256;
  c.heads = 4;
  c.vocab = 2048;
  c.seq = window;
  c.dropout = 0.0f;
  c.seed = seed * 104729 + 3;
  return c;
}

int serving_threads() { return std::min(4, usable_cores()); }

namespace {

struct ServeSpec {
  const char* name;
  std::int64_t window;
  std::int64_t users, requests_per_user, prompt_min, prompt_max, new_min, new_max;
  std::int64_t capacity_blocks, max_running;
  int teacher_checks;       ///< requests checked token by token on one full forward
  int generate_checks;      ///< requests replayed through model::generate
  std::int64_t generate_prefix;  ///< tokens each generate() replay covers
};

const ServeSpec kServeSpecs[] = {
    {"serve-chat", 128, 48, 4, 8, 32, 32, 64, /*capacity=*/768, /*max_running=*/64,
     24, 2, 64},
    // One maximal sequence (768 + 256) needs 128 blocks; 640 hold five.
    {"serve-long", 1024, 8, 1, 384, 768, 128, 256, /*capacity=*/640, /*max_running=*/8,
     8, 1, 8},
};

constexpr std::int64_t kBlockTokens = 8;
constexpr std::int64_t kMaxBatchTokens = 256;
constexpr std::int64_t kPrefillChunk = 32;
/// Set-ups before the timed window; one more follows every round.
constexpr int kSetupRepeats = 3;
/// LoadGen seed of the request mix (see the file comment).
constexpr std::uint64_t kLoadSeed = 20210;

const ServeSpec& serve_spec(const std::string& name) {
  for (const ServeSpec& s : kServeSpecs) {
    if (name == s.name) return s;
  }
  PTDP_CHECK(false) << "unknown serving workload " << name;
  return kServeSpecs[0];
}

serve::EngineOptions engine_options(const ServeSpec& s) {
  serve::EngineOptions eo;
  eo.block_tokens = kBlockTokens;
  eo.capacity_blocks = s.capacity_blocks;
  eo.max_batch_tokens = kMaxBatchTokens;
  eo.prefill_chunk = kPrefillChunk;
  eo.max_running = s.max_running;
  return eo;
}

serve::LoadGenOptions load_options(const ServeSpec& s) {
  serve::LoadGenOptions lo;
  lo.users = s.users;
  lo.requests_per_user = s.requests_per_user;
  lo.prompt_min = s.prompt_min;
  lo.prompt_max = s.prompt_max;
  lo.max_new_min = s.new_min;
  lo.max_new_max = s.new_max;
  lo.think_steps_max = 2;
  lo.window = s.window;
  lo.vocab = 2048;
  lo.sampled_fraction = 0.5;
  lo.seed = kLoadSeed;
  return lo;
}

/// One engine step() that did work, with the scheduler state around it.
struct StepLog {
  double ms = 0;
  std::int64_t decode_rows = 0, prefill_rows = 0;
  std::int64_t running = 0, waiting = 0, live_blocks = 0;
};

struct Round {
  double wall_s = 0;
  std::vector<StepLog> steps;
  std::vector<serve::FinishedRequest> finished;
  std::map<std::uint64_t, serve::Request> requests;
  serve::EngineStats stats;
  std::int64_t prompt_tokens = 0;
};

Round run_round(model::GptStage& stage, const ServeSpec& spec, const serve::LoadGenOptions& lo) {
  Round r;
  const double t0 = now_s();
  serve::ServeEngine engine(stage, engine_options(spec));
  serve::LoadGen lg(lo);
  for (std::int64_t step = 0; !lg.done(); ++step) {
    PTDP_CHECK_LT(step, 10'000'000) << "serving loop did not drain";
    lg.tick(step, engine);
    const serve::EngineStats before = engine.stats();
    const double s0 = now_s();
    const std::vector<serve::FinishedRequest> done = engine.step();
    const double ms = (now_s() - s0) * 1e3;
    const serve::EngineStats& after = engine.stats();
    if (after.steps != before.steps) {
      r.steps.push_back({ms, after.decode_tokens - before.decode_tokens,
                         after.prefill_tokens - before.prefill_tokens, engine.running(),
                         engine.waiting(), engine.kv().allocator().live_blocks()});
    }
    lg.on_finished(done, step);
  }
  r.wall_s = now_s() - t0;
  r.stats = engine.stats();
  r.finished = lg.finished();
  for (const serve::FinishedRequest& f : r.finished) {
    r.requests[f.id] = lg.request(f.id);
    r.prompt_tokens += static_cast<std::int64_t>(lg.request(f.id).prompt.size());
  }
  return r;
}

/// A fresh model plus a short warm-up load through a throwaway engine.
std::unique_ptr<model::GptStage> set_up(const ServeSpec& spec, std::uint64_t seed) {
  const model::GptConfig cfg = serving_model(spec.window, seed);
  static const dist::Comm solo = dist::Comm::solo();
  auto stage = std::make_unique<model::GptStage>(
      cfg, solo, model::StageSpec{true, true, 0, cfg.num_layers, false});
  serve::LoadGenOptions warm = load_options(spec);
  warm.seed = kLoadSeed + 1;
  warm.users = 4;
  warm.requests_per_user = 1;
  warm.prompt_min = 8;
  warm.prompt_max = 16;
  warm.max_new_min = warm.max_new_max = 4;
  run_round(*stage, spec, warm);
  return stage;
}

struct Window {
  std::vector<Round> rounds;
  double wall_s = 0;  ///< Σ round wall: set-ups between rounds are not served time
  std::int64_t generated = 0;
};

/// Exactly `rounds` rounds, or (rounds == 0) whole rounds until less than
/// half a round of `seconds` is left, so the window ends nearest `seconds`.
/// With `setups`, the model is set up anew before every round after the
/// first and each set-up time is appended: set-ups spread over the run
/// sample the host's state as the rounds do, not only its state at start.
Window run_window(std::unique_ptr<model::GptStage>& stage, const ServeSpec& spec,
                  std::uint64_t seed, double seconds, std::size_t rounds,
                  std::vector<double>* setups) {
  Window w;
  const serve::LoadGenOptions lo = load_options(spec);
  const double t0 = now_s();
  auto more = [&] {
    if (rounds > 0) return w.rounds.size() < rounds;
    if (w.rounds.empty()) return true;
    const double elapsed = now_s() - t0;
    return seconds - elapsed >= 0.5 * elapsed / static_cast<double>(w.rounds.size());
  };
  while (more()) {
    if (setups != nullptr && !w.rounds.empty()) {
      stage.reset();
      const double s0 = now_s();
      stage = set_up(spec, seed);
      setups->push_back(now_s() - s0);
    }
    w.rounds.push_back(run_round(*stage, spec, lo));
    w.generated += w.rounds.back().stats.generated_tokens;
    w.wall_s += w.rounds.back().wall_s;
  }
  return w;
}

std::int64_t requests(const Window& w) {
  std::int64_t n = 0;
  for (const Round& r : w.rounds) n += static_cast<std::int64_t>(r.finished.size());
  return n;
}

double tokens_per_s(const Window& w) {
  return w.wall_s > 0 ? static_cast<double>(w.generated) / w.wall_s : 0.0;
}

/// Per-request correctness against round 0 of `reference`: right length,
/// and the same tokens every round. Returns requests that failed.
std::int64_t check_rounds(const Window& w, const Round& reference, Report& report) {
  std::map<std::uint64_t, const serve::FinishedRequest*> ref;
  for (const serve::FinishedRequest& f : reference.finished) ref[f.id] = &f;
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < w.rounds.size(); ++i) {
    const Round& r = w.rounds[i];
    if (r.finished.size() != ref.size()) {
      report.problem("round " + std::to_string(i) + " finished " +
                     std::to_string(r.finished.size()) + " requests, expected " +
                     std::to_string(ref.size()));
    }
    for (const serve::FinishedRequest& f : r.finished) {
      const auto it = ref.find(f.id);
      const bool ok =
          it != ref.end() && f.tokens == it->second->tokens &&
          static_cast<std::int64_t>(f.tokens.size()) ==
              r.requests.at(f.id).options.max_new_tokens;
      if (!ok) {
        ++failed;
        report.problem("request " + std::to_string(f.id) + " in round " + std::to_string(i) +
                       " has the wrong tokens or length");
      }
    }
  }
  return failed;
}

struct Oracle {
  std::int64_t checked = 0, failed = 0;
  double nll_sum = 0;
  std::int64_t nll_tokens = 0;
};

/// Teacher-forced check: one full forward over prompt + generated tokens
/// gives every generation position's logits; re-sampling along them with
/// the request's stream must reproduce the served tokens. Also sums the
/// served tokens' negative log-likelihood.
bool teacher_forced_ok(model::GptStage& stage, const serve::Request& req,
                       const serve::FinishedRequest& fin, Oracle& o) {
  std::vector<std::int32_t> ctx = req.prompt;
  ctx.insert(ctx.end(), fin.tokens.begin(), fin.tokens.end());
  ctx.pop_back();
  const auto len = static_cast<std::int64_t>(ctx.size());
  const tensor::Tensor logits = model::forward_logits(stage, ctx, len, 1);
  const std::int64_t vocab = stage.config().vocab;
  Rng rng(req.options.seed, substream(0x9E4EA7E));
  bool ok = true;
  for (std::size_t j = 0; j < fin.tokens.size(); ++j) {
    const auto row_idx = static_cast<std::int64_t>(req.prompt.size() + j) - 1;
    const auto row = logits.data().subspan(static_cast<std::size_t>(row_idx * vocab),
                                           static_cast<std::size_t>(vocab));
    ok = ok && model::sample_token(row, req.options, rng) == fin.tokens[j];
    double mx = row[0];
    for (float x : row) mx = std::max(mx, static_cast<double>(x));
    double z = 0;
    for (float x : row) z += std::exp(static_cast<double>(x) - mx);
    const float served = row[static_cast<std::size_t>(fin.tokens[j])];
    o.nll_sum += mx + std::log(z) - static_cast<double>(served);
    ++o.nll_tokens;
  }
  return ok;
}

/// Replays a seeded sample of round-0 requests through the full-forward
/// oracles (outside the timed window).
Oracle replay_sample(model::GptStage& stage, const ServeSpec& spec, const Round& round,
                     std::uint64_t seed, Report& report) {
  Oracle o;
  std::vector<const serve::FinishedRequest*> pool;
  for (const serve::FinishedRequest& f : round.finished) pool.push_back(&f);
  std::sort(pool.begin(), pool.end(), [](auto* a, auto* b) { return a->id < b->id; });
  Rng rng(seed, 0x5a3e);
  for (std::size_t i = 0; i < pool.size(); ++i) {  // seeded shuffle
    std::swap(pool[i], pool[i + rng.next_below(pool.size() - i)]);
  }
  const std::size_t n_teacher = std::min<std::size_t>(spec.teacher_checks, pool.size());
  for (std::size_t i = 0; i < n_teacher; ++i) {
    const serve::FinishedRequest& fin = *pool[i];
    ++o.checked;
    if (!teacher_forced_ok(stage, round.requests.at(fin.id), fin, o)) {
      ++o.failed;
      report.problem("request " + std::to_string(fin.id) +
                     " differs from the teacher-forced full forward");
    }
  }
  for (std::size_t i = n_teacher;
       i < std::min<std::size_t>(n_teacher + spec.generate_checks, pool.size()); ++i) {
    const serve::FinishedRequest& fin = *pool[i];
    model::GenerateOptions g = round.requests.at(fin.id).options;
    g.use_kv_cache = false;
    g.max_new_tokens = std::min<std::int64_t>(spec.generate_prefix,
                                              static_cast<std::int64_t>(fin.tokens.size()));
    const std::vector<std::int32_t>& prompt = round.requests.at(fin.id).prompt;
    const std::vector<std::int32_t> out = model::generate(stage, prompt, g);
    const bool ok = std::equal(out.begin() + static_cast<std::ptrdiff_t>(prompt.size()),
                               out.end(), fin.tokens.begin());
    ++o.checked;
    if (!ok) {
      ++o.failed;
      report.problem("request " + std::to_string(fin.id) +
                     " differs from model::generate(use_kv_cache=false)");
    }
  }
  std::printf("serve: oracle checked %lld requests, %lld mismatched\n",
              static_cast<long long>(o.checked), static_cast<long long>(o.failed));
  return o;
}

struct Latencies {
  std::vector<double> ttft_ms, tbt_ms;
};

Latencies latencies(const Window& w) {
  Latencies l;
  for (const Round& r : w.rounds) {
    for (const serve::FinishedRequest& f : r.finished) {
      if (!f.token_ms.empty()) l.ttft_ms.push_back(f.first_token_ms - f.submit_ms);
      for (std::size_t i = 1; i < f.token_ms.size(); ++i) {
        l.tbt_ms.push_back(f.token_ms[i] - f.token_ms[i - 1]);
      }
    }
  }
  return l;
}

/// Per-layer serving metrics (per engine step unless the name says per round).
struct ServeLayers {
  double step_ms_decode = 0, step_ms_mixed = 0, decode_rows = 0, prefill_rows = 0,
         running_mean = 0, waiting_mean = 0, preemptions = 0, prefill_useful = 0,
         kv_peak_blocks = 0, kv_util_mean = 0, coverage = 0;
  double ttft_p50 = 0, ttft_p90 = 0, tbt_p50 = 0, tbt_p99 = 0;

  void add_to(Report& r) const {
    r.add("serve.step_ms_decode", step_ms_decode, "ms");
    r.add("serve.step_ms_mixed", step_ms_mixed, "ms");
    r.add("serve.decode_rows_per_step", decode_rows, "count");
    r.add("serve.prefill_rows_per_step", prefill_rows, "count");
    r.add("serve.running_mean", running_mean, "count");
    r.add("serve.waiting_mean", waiting_mean, "count");
    r.add("serve.preemptions", preemptions, "count");
    r.add("serve.prefill_useful_frac", prefill_useful, "ratio");
    r.add("serve.kv.peak_blocks", kv_peak_blocks, "count");
    r.add("serve.kv.util_mean", kv_util_mean, "ratio");
    r.add("serve.step_coverage", coverage, "ratio");
    r.add("serve.ttft_ms_p50", ttft_p50, "ms");
    r.add("serve.ttft_ms_p90", ttft_p90, "ms");
    r.add("serve.tbt_ms_p50", tbt_p50, "ms");
    r.add("serve.tbt_ms_p99", tbt_p99, "ms");
  }
};

ServeLayers analyze(const ServeSpec& spec, const Window& w, Report& report) {
  ServeLayers L;
  std::vector<double> decode_ms, mixed_ms, running, waiting, util;
  double step_s = 0, round_s = 0, decode_rows = 0, prefill_rows = 0, steps = 0;
  double prompt_tokens = 0, preemptions = 0;
  for (const Round& r : w.rounds) {
    for (const StepLog& s : r.steps) {
      (s.prefill_rows == 0 ? decode_ms : mixed_ms).push_back(s.ms);
      running.push_back(static_cast<double>(s.running));
      waiting.push_back(static_cast<double>(s.waiting));
      util.push_back(static_cast<double>(s.live_blocks) /
                     static_cast<double>(spec.capacity_blocks));
      L.kv_peak_blocks = std::max(L.kv_peak_blocks, static_cast<double>(s.live_blocks));
      decode_rows += static_cast<double>(s.decode_rows);
      prefill_rows += static_cast<double>(s.prefill_rows);
      step_s += s.ms / 1e3;
      steps += 1;
    }
    round_s += r.wall_s;
    prompt_tokens += static_cast<double>(r.prompt_tokens);
    preemptions += static_cast<double>(r.stats.preemptions);
  }
  const double rounds = static_cast<double>(w.rounds.size());
  L.step_ms_decode = median(decode_ms);
  L.step_ms_mixed = median(mixed_ms);
  L.decode_rows = steps > 0 ? decode_rows / steps : 0;
  L.prefill_rows = steps > 0 ? prefill_rows / steps : 0;
  L.running_mean = mean(running);
  L.waiting_mean = mean(waiting);
  L.preemptions = preemptions / rounds;
  L.prefill_useful = prefill_rows > 0 ? prompt_tokens / prefill_rows : 0;
  L.kv_util_mean = mean(util);
  L.coverage = round_s > 0 ? step_s / round_s : 0;
  std::printf("serve: %.0f steps over %.0f rounds: %.0f decode rows, %.0f prefill rows, "
              "step coverage %.3f\n",
              steps, rounds, decode_rows, prefill_rows, L.coverage);
  if (L.coverage < 0.9) {
    report.warn("serve.step_coverage is " + std::to_string(L.coverage) + " (< 0.9)");
  }
  const Latencies lat = latencies(w);
  L.ttft_p50 = percentile(lat.ttft_ms, 0.5);
  L.ttft_p90 = percentile(lat.ttft_ms, 0.9);
  L.tbt_p50 = percentile(lat.tbt_ms, 0.5);
  L.tbt_p99 = percentile(lat.tbt_ms, 0.99);
  return L;
}

void print_latencies(const Window& w) {
  const Latencies lat = latencies(w);
  std::printf("serve: ttft %s\n", describe_latency(lat.ttft_ms).c_str());
  std::printf("serve: tbt  %s\n", describe_latency(lat.tbt_ms).c_str());
}

}  // namespace

void add_zero_serving_layers(Report& report) { ServeLayers{}.add_to(report); }

Report run_serving(const RunOptions& o) {
  const ServeSpec& spec = serve_spec(o.workload);
  runtime::set_intra_op_threads(static_cast<std::size_t>(serving_threads()));
  auto& tracer = obs::Tracer::instance();
  tracer.set_mode(obs::TraceMode::kOff);
  tracer.set_thread_capacity(std::size_t{1} << 18);
  Report report;

  if (!o.trace) {
    std::vector<double> setups;
    std::unique_ptr<model::GptStage> stage;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      stage.reset();
      const double t0 = now_s();
      stage = set_up(spec, o.seed);
      setups.push_back(now_s() - t0);
    }
    const Window w = run_window(stage, spec, o.seed, o.seconds, 0, &setups);
    const double rss = peak_rss_mb();
    std::vector<double> step_ms;
    for (const Round& r : w.rounds) {
      for (const StepLog& s : r.steps) step_ms.push_back(s.ms);
    }
    report.failed = check_rounds(w, w.rounds[0], report);
    const Oracle oracle = replay_sample(*stage, spec, w.rounds[0], o.seed, report);
    report.failed += oracle.failed;
    report.attempted = requests(w);
    std::printf("serve: %zu rounds, %lld tokens in %.3f s, preemptions/round %lld\n",
                w.rounds.size(), static_cast<long long>(w.generated), w.wall_s,
                static_cast<long long>(w.rounds[0].stats.preemptions));
    std::printf("serve: step %s\n", describe_latency(step_ms).c_str());
    print_latencies(w);
    report.add("setup_s", median(setups), "s");
    report.add("tokens_per_s", tokens_per_s(w), "tok/s");
    report.add("step_ms_p50", median(step_ms), "ms");
    report.add("loss_final", oracle.nll_tokens > 0 ? oracle.nll_sum / oracle.nll_tokens : 0.0,
               "nats");
    report.add("peak_rss_mb", rss, "MB");
    return report;
  }

  // Traced run: the same rounds untraced, then traced.
  std::unique_ptr<model::GptStage> stage = set_up(spec, o.seed);
  const Window a = run_window(stage, spec, o.seed, o.seconds / 2, 0, nullptr);
  tracer.reset();
  obs::MetricsRegistry::instance().reset();
  tracer.set_mode(obs::TraceMode::kFull);
  const Window b = run_window(stage, spec, o.seed, 0, a.rounds.size(), nullptr);
  tracer.set_mode(obs::TraceMode::kOff);
  report.failed = check_rounds(a, a.rounds[0], report) + check_rounds(b, a.rounds[0], report);
  report.attempted = requests(a) + requests(b);
  if (!o.trace_out.empty() && !tracer.write_chrome_json(o.trace_out)) {
    report.problem("could not write " + o.trace_out);
  }
  add_zero_training_layers(report);
  analyze(spec, b, report).add_to(report);
  print_latencies(b);
  const double tps_a = tokens_per_s(a), tps_b = tokens_per_s(b);
  std::printf("serve: untraced %.1f tok/s, traced %.1f tok/s over %zu rounds\n", tps_a, tps_b,
              b.rounds.size());
  report.add("obs.trace_overhead_frac", tps_a > 0 ? 1.0 - tps_b / tps_a : 0.0, "ratio");
  return report;
}

bool is_serving_workload(const std::string& name) {
  for (const ServeSpec& s : kServeSpecs) {
    if (name == s.name) return true;
  }
  return false;
}

}  // namespace ptdpbench
