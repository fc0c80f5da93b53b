#include "ptdp/serve/engine.hpp"

#include <algorithm>
#include <optional>

#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/runtime/stopwatch.hpp"

namespace ptdp::serve {

ServeEngine::ServeEngine(model::GptStage& stage, EngineOptions options)
    : stage_(stage),
      options_(options),
      kv_({stage.config().num_layers,
           stage.kv_heads_local() * stage.kv_head_dim(), options.block_tokens,
           options.capacity_blocks, options.record_metrics}),
      epoch_ns_(steady_now_ns()) {
  PTDP_CHECK(stage.spec().has_embedding && stage.spec().has_head)
      << "serving needs the whole model on one stage";
  PTDP_CHECK_EQ(stage.config().dropout, 0.0f)
      << "build the serving model with dropout = 0";
  PTDP_CHECK_GT(options_.max_batch_tokens, 0);
  PTDP_CHECK_GT(options_.prefill_chunk, 0);
  PTDP_CHECK_GT(options_.max_running, 0);
}

double ServeEngine::now_ms() const {
  return static_cast<double>(steady_now_ns() - epoch_ns_) / 1e6;
}

ServeEngine::Seq& ServeEngine::seq(std::uint64_t id) {
  auto it = seqs_.find(id);
  PTDP_CHECK(it != seqs_.end()) << "unknown sequence " << id;
  return it->second;
}

void ServeEngine::insert_by_ordinal(
    std::vector<std::uint64_t>& queue,
    const std::unordered_map<std::uint64_t, Seq>& seqs, std::uint64_t id) {
  const std::int64_t ord = seqs.at(id).ordinal;
  auto it = std::lower_bound(queue.begin(), queue.end(), ord,
                             [&](std::uint64_t q, std::int64_t o) {
                               return seqs.at(q).ordinal < o;
                             });
  queue.insert(it, id);
}

void ServeEngine::submit(Request request) {
  PTDP_CHECK(!request.prompt.empty()) << "empty prompt";
  PTDP_CHECK(seqs_.find(request.id) == seqs_.end())
      << "duplicate request id " << request.id;
  const std::int64_t window = stage_.config().seq;
  const std::int64_t prompt_len =
      static_cast<std::int64_t>(request.prompt.size());
  PTDP_CHECK_LE(prompt_len, window)
      << "prompt longer than the model's trained window";

  Seq s;
  const std::int64_t max_new =
      std::min<std::int64_t>(request.options.max_new_tokens,
                             window - prompt_len);
  s.max_context = prompt_len + std::max<std::int64_t>(max_new, 0);
  s.context = request.prompt;
  s.rng = Rng(request.options.seed, substream(0x9E4EA7E));
  s.ordinal = next_ordinal_++;
  s.submit_step = stats_.steps;
  s.submit_ms = now_ms();
  s.req = std::move(request);
  ++stats_.submitted;

  if (max_new <= 0) {
    // Window already full: nothing to generate. Retire without ever
    // touching the scheduler (step() drains pending_finished_).
    FinishedRequest fin;
    fin.id = s.req.id;
    fin.submit_step = fin.finish_step = s.submit_step;
    fin.submit_ms = fin.finish_ms = s.submit_ms;
    pending_finished_.push_back(std::move(fin));
    ++stats_.completed;
    return;
  }

  // The request must be servable alone: full prompt during prefill, and
  // max_context - 1 cached positions on the final decode step. Failing
  // this would spin forever self-preempting.
  const std::int64_t solo =
      std::max<std::int64_t>(prompt_len, s.max_context - 1);
  PTDP_CHECK_LE(kv_.blocks_for(solo), options_.capacity_blocks)
      << "request " << s.req.id << " cannot fit the KV budget even alone";

  const std::uint64_t id = s.req.id;
  seqs_.emplace(id, std::move(s));
  insert_by_ordinal(waiting_, seqs_, id);
}

void ServeEngine::preempt(std::uint64_t id) {
  Seq& s = seq(id);
  kv_.drop(id);
  s.cached = 0;  // re-prefills prompt + generated on re-admission
  ++s.preemptions;
  ++stats_.preemptions;
  running_.erase(std::find(running_.begin(), running_.end(), id));
  insert_by_ordinal(waiting_, seqs_, id);
  if (options_.record_metrics && obs::metrics_on()) {
    obs::MetricsRegistry::instance().counter("serve.preemptions").add();
  }
}

bool ServeEngine::reserve_with_eviction(
    std::uint64_t id, std::int64_t len,
    const std::unordered_set<std::uint64_t>& pinned) {
  const std::int64_t my_ord = seq(id).ordinal;
  while (!kv_.try_reserve(id, len)) {
    // Evict the youngest running sequence that is strictly younger than the
    // beneficiary and not already committed to this step's batch. Never
    // touching older sequences is what keeps the oldest request always
    // progressing (no starvation).
    std::uint64_t victim = 0;
    std::int64_t victim_ord = my_ord;
    for (std::uint64_t r : running_) {
      const Seq& cand = seqs_.at(r);
      if (cand.ordinal > victim_ord && pinned.find(r) == pinned.end()) {
        victim = r;
        victim_ord = cand.ordinal;
      }
    }
    if (victim_ord == my_ord) return false;  // nobody younger to evict
    preempt(victim);
  }
  return true;
}

void ServeEngine::finish(std::uint64_t id, std::vector<FinishedRequest>& done) {
  Seq& s = seq(id);
  kv_.drop(id);
  FinishedRequest fin;
  fin.id = id;
  fin.tokens.assign(s.context.begin() +
                        static_cast<std::ptrdiff_t>(s.req.prompt.size()),
                    s.context.end());
  fin.submit_step = s.submit_step;
  fin.finish_step = stats_.steps;
  fin.preemptions = s.preemptions;
  fin.submit_ms = s.submit_ms;
  fin.first_token_ms = s.first_token_ms;
  fin.finish_ms = now_ms();
  fin.token_ms = std::move(s.token_ms);
  ++stats_.completed;
  if (options_.record_metrics && obs::metrics_on()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("serve.requests_completed").add();
    reg.counter("serve.tokens_generated").add(s.generated);
    reg.histogram("serve.ttft_ms").observe(fin.first_token_ms - fin.submit_ms);
    reg.histogram("serve.e2e_ms").observe(fin.finish_ms - fin.submit_ms);
    auto& tbt = reg.histogram("serve.tbt_ms");
    for (std::size_t i = 1; i < fin.token_ms.size(); ++i) {
      tbt.observe(fin.token_ms[i] - fin.token_ms[i - 1]);
    }
  }
  if (options_.record_metrics && obs::spans_on()) {
    obs::instant("serve.request_done", obs::Cat::kEngine,
                 {{"id", static_cast<std::int64_t>(id)},
                  {"tokens", s.generated},
                  {"preemptions", s.preemptions},
                  {"steps", fin.finish_step - fin.submit_step}});
  }
  running_.erase(std::find(running_.begin(), running_.end(), id));
  seqs_.erase(id);
  done.push_back(std::move(fin));
}

std::vector<FinishedRequest> ServeEngine::step() {
  std::vector<FinishedRequest> done;
  if (!pending_finished_.empty()) {
    done = std::move(pending_finished_);
    pending_finished_.clear();
  }
  if (waiting_.empty() && running_.empty()) return done;
  ++stats_.steps;

  // serve.step covers the whole working step: serve.schedule (the three
  // passes below), the model's decode spans and serve.sample.
  std::optional<obs::Span> step_span, phase_span;
  if (options_.record_metrics) {
    step_span.emplace("serve.step", obs::Cat::kEngine);
    phase_span.emplace("serve.schedule", obs::Cat::kEngine);
  }
  struct Entry {
    std::uint64_t id;
    std::int64_t pos;
    std::int64_t len;
  };
  std::vector<Entry> batch;
  std::unordered_set<std::uint64_t> pinned;
  std::int64_t budget = options_.max_batch_tokens;

  // 1. Decode: every sequence whose whole context except the newest token
  // is cached advances one token, oldest first. Reservation may evict
  // younger runners; a sequence that cannot reserve even after evictions
  // skips this round (its blocks stay, it just doesn't batch).
  std::vector<std::uint64_t> round(running_);
  for (std::uint64_t id : round) {
    if (budget < 1) break;
    if (std::find(running_.begin(), running_.end(), id) == running_.end()) {
      continue;  // evicted by an older sequence earlier in this pass
    }
    Seq& s = seq(id);
    const std::int64_t left =
        static_cast<std::int64_t>(s.context.size()) - s.cached;
    if (s.generated == 0 || left != 1) continue;  // still prefilling
    if (!reserve_with_eviction(id, s.cached + 1, pinned)) continue;
    batch.push_back({id, s.cached, 1});
    pinned.insert(id);
    budget -= 1;
    ++stats_.decode_tokens;
  }

  // 2. Prefill: running sequences still materializing their context take a
  // chunk each. Decode keeps KV priority through pass order (decode
  // sequences are already pinned), but prefill must also be able to evict
  // strictly-younger runners: with try_reserve alone, "every runner needs
  // one more block and free = 0" is a livelock nobody can break.
  round.assign(running_.begin(), running_.end());
  for (std::uint64_t id : round) {
    if (budget <= 0) break;
    if (std::find(running_.begin(), running_.end(), id) == running_.end()) {
      continue;  // evicted earlier in this pass
    }
    Seq& s = seq(id);
    const std::int64_t left =
        static_cast<std::int64_t>(s.context.size()) - s.cached;
    if (left <= 0 || pinned.find(id) != pinned.end()) continue;
    const std::int64_t chunk =
        std::min({left, options_.prefill_chunk, budget});
    if (!reserve_with_eviction(id, s.cached + chunk, pinned)) continue;
    batch.push_back({id, s.cached, chunk});
    pinned.insert(id);
    budget -= chunk;
    stats_.prefill_tokens += chunk;
  }

  // 3. Admission: pull from the waiting queue in arrival order while KV and
  // batch budget allow. A re-admitted sequence enters here too, restarting
  // its prefill over prompt + previously-generated tokens.
  while (!waiting_.empty() && budget > 0 &&
         static_cast<std::int64_t>(running_.size()) < options_.max_running) {
    const std::uint64_t id = waiting_.front();
    Seq& s = seq(id);
    const std::int64_t left =
        static_cast<std::int64_t>(s.context.size()) - s.cached;
    const std::int64_t chunk =
        std::min({left, options_.prefill_chunk, budget});
    if (!kv_.try_reserve(id, s.cached + chunk)) break;
    waiting_.erase(waiting_.begin());
    insert_by_ordinal(running_, seqs_, id);
    batch.push_back({id, s.cached, chunk});
    pinned.insert(id);
    budget -= chunk;
    stats_.prefill_tokens += chunk;
    stats_.peak_running = std::max(
        stats_.peak_running, static_cast<std::int64_t>(running_.size()));
  }

  phase_span.reset();
  if (batch.empty()) return done;  // all runners blocked on KV this round

  std::vector<model::DecodeSeq> dseqs;
  std::vector<std::int32_t> tokens;
  dseqs.reserve(batch.size());
  for (const Entry& e : batch) {
    const Seq& s = seqs_.at(e.id);
    dseqs.push_back({e.id, e.pos, e.len});
    for (std::int64_t i = 0; i < e.len; ++i) {
      tokens.push_back(s.context[static_cast<std::size_t>(e.pos + i)]);
    }
  }
  stats_.peak_batch_tokens =
      std::max(stats_.peak_batch_tokens,
               static_cast<std::int64_t>(tokens.size()));

  if (step_span) {
    step_span->arg("seqs", static_cast<std::int64_t>(batch.size()));
    step_span->arg("tokens", static_cast<std::int64_t>(tokens.size()));
  }
  const tensor::Tensor logits = stage_.decode(dseqs, tokens, kv_);

  // Sample for every sequence whose context is now fully materialized (the
  // batch row holds its last position's logits). Mid-prefill entries skip.
  const std::int64_t vocab = stage_.config().vocab;
  const double t = now_ms();
  if (step_span) phase_span.emplace("serve.sample", obs::Cat::kEngine);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Entry& e = batch[i];
    Seq& s = seq(e.id);
    s.cached = e.pos + e.len;
    if (s.cached != static_cast<std::int64_t>(s.context.size())) continue;
    auto row = logits.data().subspan(i * static_cast<std::size_t>(vocab),
                                     static_cast<std::size_t>(vocab));
    const std::int32_t tok = model::sample_token(row, s.req.options, s.rng);
    s.context.push_back(tok);
    ++s.generated;
    ++stats_.generated_tokens;
    if (s.generated == 1) s.first_token_ms = t;
    s.token_ms.push_back(t);
    if (s.generated >= s.max_context -
                           static_cast<std::int64_t>(s.req.prompt.size())) {
      finish(e.id, done);
    }
  }
  return done;
}

}  // namespace ptdp::serve
