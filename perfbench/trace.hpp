// perfbench/trace.hpp — spans recorded from outside the program.
//
// The traced run hands Dataplane a TracedEngine instead of the bare
// PoptrieEngine. The adapter times every lookup_batch call, its reader times
// the EBR guard's enter and exit, and the time a worker spends between one
// guard exit and the next guard entry (ring pop, counters, polling) is the
// gap. Nothing inside src/ is instrumented: every timestamp is taken around
// a call the benchmark makes (or Dataplane makes through the adapter).
//
// Memory is bounded: each thread owns one SpanLog holding per-name
// aggregates plus a fixed-capacity reservoir of raw spans, and the worker
// hot path touches only fixed counters, sampling one burst in
// kBurstSampleStride into its log.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/engines.hpp"
#include "workload/xorshift.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 for a root span); ids are unique per SpanLog.
struct Span {
    std::string_view name;  // always a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
};

struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t max_ns = 0;

    void add(std::int64_t ns) noexcept
    {
        ++count;
        total_ns += ns;
        max_ns = std::max(max_ns, ns);
    }
    void merge(const Aggregate& o) noexcept
    {
        count += o.count;
        total_ns += o.total_ns;
        max_ns = std::max(max_ns, o.max_ns);
    }
};

/// One thread's span record: exact per-name aggregates, and a uniform
/// reservoir sample of at most `capacity` raw spans.
class SpanLog {
public:
    explicit SpanLog(std::uint32_t thread_tag, std::size_t capacity = 2048)
        : tag_(thread_tag), capacity_(capacity), rng_(0x5FA7u + thread_tag)
    {
        spans_.reserve(capacity);
    }

    /// A fresh span id, tagged with the owning thread in the top bits.
    [[nodiscard]] std::uint64_t next_id() noexcept
    {
        return (std::uint64_t{tag_} << 40) | ++counter_;
    }

    std::uint64_t add(std::string_view name, std::int64_t start, std::int64_t end,
                      std::uint64_t parent = 0)
    {
        const std::uint64_t id = next_id();
        aggregates_[name].add(end - start);
        sample(Span{name, start, end, id, parent});
        return id;
    }

    /// Raw span only (its aggregate is folded in separately).
    void sample(const Span& s)
    {
        ++seen_;
        if (spans_.size() < capacity_) {
            spans_.push_back(s);
            return;
        }
        const std::uint64_t j = rng_.next64() % seen_;
        if (j < capacity_) spans_[j] = s;
    }

    [[nodiscard]] const std::map<std::string_view, Aggregate>& aggregates() const noexcept
    {
        return aggregates_;
    }
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    std::uint32_t tag_;
    std::size_t capacity_;
    std::uint64_t counter_ = 0;
    std::uint64_t seen_ = 0;
    workload::Xorshift128 rng_;
    std::map<std::string_view, Aggregate> aggregates_;
    std::vector<Span> spans_;
};

/// One forwarding worker's trace. Written only by its worker thread; read
/// by the main thread after Dataplane::stop() joined the worker.
struct WorkerTrace {
    static constexpr std::uint64_t kBurstSampleStride = 1024;

    explicit WorkerTrace(std::uint32_t tag) : log(tag) {}

    SpanLog log;
    std::uint64_t bursts = 0;
    std::uint64_t keys = 0;
    std::int64_t guard_ns = 0;
    std::int64_t lookup_ns = 0;
    std::int64_t gap_ns = 0;
    std::int64_t created_ns = 0;
    std::int64_t finished_ns = 0;
    std::int64_t last_exit_ns = 0;
    // The burst being traced (enter, lookup call, exit timestamps).
    std::int64_t enter0 = 0, enter1 = 0, lookup0 = 0, lookup1 = 0;

    [[nodiscard]] std::int64_t wall_ns() const noexcept { return finished_ns - created_ns; }

    /// The worker is exiting: the time since the last guard exit is gap too.
    void finish(std::int64_t now) noexcept
    {
        finished_ns = now;
        gap_ns += now - last_exit_ns;
    }

    void on_exit(std::int64_t exit0, std::int64_t exit1)
    {
        guard_ns += (enter1 - enter0) + (exit1 - exit0);
        lookup_ns += lookup1 - lookup0;
        gap_ns += enter0 - last_exit_ns;
        if (bursts % kBurstSampleStride == 0) {
            const std::uint64_t burst = log.next_id();
            log.sample({"dataplane.gap", last_exit_ns, enter0, log.next_id(), burst});
            log.sample({"sync.guard_enter", enter0, enter1, log.next_id(), burst});
            log.sample({"poptrie.lookup_batch", lookup0, lookup1, log.next_id(), burst});
            log.sample({"sync.guard_exit", exit0, exit1, log.next_id(), burst});
            log.sample({"dataplane.burst", last_exit_ns, exit1, burst, 0});
        }
        last_exit_ns = exit1;
        ++bursts;
    }
};

/// Owns every WorkerTrace of a run's traced Dataplanes (one per worker per
/// window).
class WorkerTraces {
public:
    WorkerTrace& add()
    {
        const std::lock_guard lock(mu_);
        traces_.push_back(
            std::make_unique<WorkerTrace>(static_cast<std::uint32_t>(0x100 + traces_.size())));
        return *traces_.back();
    }
    /// Only after the Dataplane stopped (every worker joined).
    [[nodiscard]] const std::vector<std::unique_ptr<WorkerTrace>>& all() const noexcept
    {
        return traces_;
    }

private:
    std::mutex mu_;
    std::vector<std::unique_ptr<WorkerTrace>> traces_;
};

/// The trace a worker thread records into; set by TracedEngine::make_reader,
/// which Dataplane calls on the worker thread before its first burst.
inline thread_local WorkerTrace* tl_worker_trace = nullptr;

/// EbrReader plus guard timing. The guard takes its first timestamp before
/// entering the EBR read section and its last after leaving it.
class TracedReader {
public:
    TracedReader(dataplane::EbrReader inner, WorkerTrace& trace) noexcept
        : inner_(std::move(inner)), trace_(trace)
    {
    }
    ~TracedReader() { trace_.finish(now_ns()); }
    TracedReader(const TracedReader&) = delete;
    TracedReader& operator=(const TracedReader&) = delete;

    class POPTRIE_SCOPED_CAPABILITY Guard {
    public:
        explicit Guard(TracedReader& r) noexcept POPTRIE_ACQUIRE_SHARED(psync::cap::ebr)
            : trace_(r.trace_)
        {
            trace_.enter0 = now_ns();
            inner_.emplace(r.inner_);
            trace_.enter1 = now_ns();
        }
        ~Guard() POPTRIE_RELEASE_GENERIC(psync::cap::ebr)
        {
            const std::int64_t exit0 = now_ns();
            inner_.reset();
            trace_.on_exit(exit0, now_ns());
        }
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;

    private:
        WorkerTrace& trace_;
        std::optional<dataplane::EbrReader::Guard> inner_;
    };

private:
    dataplane::EbrReader inner_;
    WorkerTrace& trace_;
};

/// PoptrieEngine with every lookup_batch call timed.
class TracedEngine {
public:
    using addr_type = dataplane::PoptrieEngine::addr_type;
    using key_type = dataplane::PoptrieEngine::key_type;
    static constexpr bool kSupportsChurn = true;

    TracedEngine(dataplane::PoptrieEngine inner, WorkerTraces& traces) noexcept
        : inner_(inner), traces_(&traces)
    {
    }

    [[nodiscard]] std::string_view name() const noexcept { return "poptrie+trace"; }

    void lookup_batch(const key_type* keys, rib::NextHop* out, std::size_t n) const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        WorkerTrace& t = *tl_worker_trace;
        t.lookup0 = now_ns();
        inner_.lookup_batch(keys, out, n);
        t.lookup1 = now_ns();
        t.keys += n;
    }

    [[nodiscard]] TracedReader make_reader() const
    {
        WorkerTrace& t = traces_->add();
        tl_worker_trace = &t;
        t.created_ns = t.last_exit_ns = now_ns();
        return TracedReader{inner_.make_reader(), t};
    }

private:
    dataplane::PoptrieEngine inner_;
    WorkerTraces* traces_;
};

static_assert(dataplane::LpmEngine<TracedEngine>);

}  // namespace perfbench
