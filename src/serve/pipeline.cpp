#include "serve/pipeline.h"

#include <chrono>
#include <string>

#include "common/contracts.h"
#include "common/fault_injection.h"
#include "obs/trace.h"

namespace sne::serve {

PipelineDeployment::PipelineDeployment(core::SneConfig hw,
                                       ecnn::QuantizedNetwork net,
                                       PipelineOptions opts)
    : hw_(hw),
      net_(std::move(net)),
      opts_(opts),
      pool_(hw_, 0,
            ecnn::EnginePoolOptions{opts.memory_words, opts.mem_timing,
                                    opts.use_wload_stream, /*max_engines=*/0,
                                    /*weight_resident=*/opts.weight_resident}) {
  hw_.validate();
  SNE_EXPECTS(!net_.layers.empty());
  if (opts_.weight_resident) model_fp_ = ecnn::model_fingerprint(net_);

  // Contiguous near-even split of the layer list over the stages.
  const std::size_t layers = net_.layers.size();
  std::size_t stages = opts_.stages == 0 ? layers : opts_.stages;
  if (stages > layers) stages = layers;
  const std::size_t base = layers / stages;
  const std::size_t rem = layers % stages;
  std::size_t first = 0;
  for (std::size_t s = 0; s < stages; ++s) {
    const std::size_t count = base + (s < rem ? 1 : 0);
    ranges_.emplace_back(first, first + count);
    first += count;
  }

  queues_.reserve(stages);
  for (std::size_t s = 0; s < stages; ++s)
    queues_.push_back(
        std::make_unique<BoundedQueue<JobPtr>>(opts_.queue_capacity));
  stage_threads_.reserve(stages);
  for (std::size_t s = 0; s < stages; ++s)
    stage_threads_.emplace_back([this, s] { stage_loop(s); });
}

PipelineDeployment::~PipelineDeployment() {
  // Stop admission; each stage closes its successor once it has drained, so
  // every admitted job completes before the threads exit.
  queues_.front()->close();
  for (auto& t : stage_threads_) t.join();
}

Ticket PipelineDeployment::submit(event::EventStream input) {
  auto job = std::make_unique<Job>();
  job->input = std::move(input);
  job->ticket = std::make_shared<detail::TicketState>();
  job->submitted_at = std::chrono::steady_clock::now();
  job->stage_enqueued_at = job->submitted_at;
  {
    std::lock_guard<std::mutex> lk(submit_m_);
    job->ticket->id = next_id_++;
  }
  const Ticket ticket{job->ticket};
  if (!queues_.front()->push(std::move(job)))
    throw ConfigError("submit on a shut-down pipeline deployment");
  return ticket;
}

std::vector<ecnn::NetworkRunStats> PipelineDeployment::run(
    const std::vector<event::EventStream>& inputs) {
  std::vector<Ticket> tickets;
  tickets.reserve(inputs.size());
  for (const auto& in : inputs) tickets.push_back(submit(in));
  std::vector<ecnn::NetworkRunStats> results;
  results.reserve(inputs.size());
  for (const Ticket& t : tickets) results.push_back(t.wait());
  return results;
}

PipelineDeployment::Stats PipelineDeployment::stats() const {
  std::lock_guard<std::mutex> lk(stats_m_);
  return stats_;
}

void PipelineDeployment::stage_loop(std::size_t s) {
  // Each stage owns one pooled engine at a time; requests on the stage
  // reset it, so every request sees a machine indistinguishable from new.
  // Nothing may escape this thread function (std::terminate), so every
  // failure lands on a job's ticket instead.
  const auto [first, last] = ranges_[s];
  std::optional<ecnn::EnginePool::Lease> lease;
  std::exception_ptr stage_error;
  // (Re)spawn the stage's engine: acquire a lease and redo the deploy-time
  // programming. Called at startup and again after a failure quarantined
  // the previous engine — this is what makes a stage fault degrade to one
  // failed job instead of a dead pipeline. Programming counters are
  // deployment (or recovery) cost, charged to no request.
  const auto spawn = [&, first = first, last = last] {
    stage_error = nullptr;
    try {
      lease.reset();  // a poisoned lease destructs here -> pool discards
      lease.emplace(pool_.acquire(model_fp_));
      if (opts_.weight_resident && opts_.warmup_timesteps > 0)
        for (std::size_t li = first; li < last; ++li)
          lease->runner().program_layer(net_.layers[li],
                                        opts_.warmup_timesteps, model_fp_, li);
    } catch (...) {
      stage_error = std::current_exception();
    }
  };
  const auto diagnose = [&, s, first = first, last = last](
                            const std::string& cause) {
    return std::make_exception_ptr(StageError(
        "pipeline stage " + std::to_string(s) + " (layers [" +
        std::to_string(first) + "," + std::to_string(last) + ")) " + cause));
  };
  spawn();
  const bool is_last = s + 1 == queues_.size();
  const bool watchdog = opts_.stage_timeout_ms > 0.0;
  const auto tick = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(
          watchdog ? opts_.stage_timeout_ms : 100.0));
  for (;;) {
    JobPtr job;
    const auto popped = queues_[s]->pop_for(tick, job);
    if (popped == BoundedQueue<JobPtr>::PopStatus::kTimeout) continue;
    if (popped == BoundedQueue<JobPtr>::PopStatus::kClosed) break;
    // One span per stage hop, correlated by the job's ticket: the stream
    // queue wait, then the stage's own work (layer spans nest underneath).
    obs::ScopedCorr corr(job->ticket->id);
    obs::trace_span_since("serve.stage.queue", job->stage_enqueued_at, s);
    obs::ScopedSpan stage_span("serve.stage", s);
    // Watchdog: judge stream-queue wait before spending engine time on a
    // job nobody upstream could serve in budget (a stalled stage sheds its
    // backlog with diagnosable errors instead of clogging the pipe).
    if (watchdog && !job->failed) {
      const double waited_ms = detail::ms_since(job->stage_enqueued_at);
      if (waited_ms > opts_.stage_timeout_ms) {
        job->failed = true;
        // Ledger before ticket (here and below): a waiter woken by its own
        // fail/fulfill must observe its job already counted in stats().
        {
          std::lock_guard<std::mutex> lk(stats_m_);
          ++stats_.jobs_failed;
          ++stats_.watchdog_failures;
        }
        job->ticket->fail(
            diagnose("watchdog: job waited " + std::to_string(waited_ms) +
                     " ms in the stream queue (budget " +
                     std::to_string(opts_.stage_timeout_ms) + " ms)"),
            detail::ms_since(job->submitted_at));
      }
    }
    // A failed (re)spawn is retried per job; only if the pool still cannot
    // produce an engine does the job fail.
    if (!job->failed && stage_error) spawn();
    if (!job->failed && stage_error) {
      job->failed = true;
      {
        std::lock_guard<std::mutex> lk(stats_m_);
        ++stats_.jobs_failed;
      }
      job->ticket->fail(stage_error, detail::ms_since(job->submitted_at));
    }
    if (!job->failed) {
      try {
        faults::check("serve.pipeline.stage");
        // Weight-resident stages keep their programming across jobs; the
        // machine reset alone restores a state indistinguishable (for the
        // relaxed tier) from the full reset + reprogram of the cold path.
        if (opts_.weight_resident)
          lease->engine().reset_machine_state();
        else
          lease->engine().reset();
        for (std::size_t li = first; li < last; ++li) {
          const event::EventStream& cur = job->acc.layers.empty()
                                              ? job->input
                                              : job->acc.layers.back().output;
          ecnn::LayerRunStats layer = lease->runner().run_layer(
              net_.layers[li], cur, opts_.policy, model_fp_, li);
          job->acc.total += layer.counters;
          job->acc.cycles += layer.cycles;
          job->acc.programming += layer.programming;
          job->acc.programming_cycles += layer.programming_cycles;
          job->acc.passes_total += layer.passes_total;
          job->acc.passes_warm += layer.passes_warm;
          job->acc.layers.push_back(std::move(layer));
        }
      } catch (const std::exception& e) {
        job->failed = true;
        {
          std::lock_guard<std::mutex> lk(stats_m_);
          ++stats_.jobs_failed;
          ++stats_.stage_respawns;
        }
        job->ticket->fail(diagnose(std::string("failed: ") + e.what()),
                          detail::ms_since(job->submitted_at));
        // The engine ran an unknown fraction of the job: quarantine it and
        // respawn so the next job gets a provably clean machine.
        if (lease) lease->poison();
        spawn();
      } catch (...) {
        job->failed = true;
        {
          std::lock_guard<std::mutex> lk(stats_m_);
          ++stats_.jobs_failed;
          ++stats_.stage_respawns;
        }
        job->ticket->fail(diagnose("failed: unknown exception"),
                          detail::ms_since(job->submitted_at));
        if (lease) lease->poison();
        spawn();
      }
    }
    if (is_last) {
      if (!job->failed) {
        job->acc.final_output = job->acc.layers.back().output;
        {
          std::lock_guard<std::mutex> lk(stats_m_);
          ++stats_.jobs_completed;
        }
        job->ticket->fulfill(std::move(job->acc),
                             detail::ms_since(job->submitted_at));
      }
    } else {
      // Failed jobs still flow downstream (cheap: stages skip them) so the
      // close-propagation order stays the only shutdown protocol.
      job->stage_enqueued_at = std::chrono::steady_clock::now();
      queues_[s + 1]->push(std::move(job));
    }
  }
  if (!is_last) queues_[s + 1]->close();
}

}  // namespace sne::serve
