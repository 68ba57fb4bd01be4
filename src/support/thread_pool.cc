#include "src/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "src/support/logging.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace alpa {

namespace {

// Identity of the current thread inside its pool, for the Submit fast path
// (nested work goes onto the submitting worker's own deque).
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;

}  // namespace

struct ThreadPool::LoopState {
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  int64_t n = 0;
  const std::function<void(int64_t)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable finished;
  std::exception_ptr error;  // First failure; guarded by mu.

  // Claims and runs iterations until the counter is exhausted.
  void Drain() {
    while (true) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        (*fn)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) {
            error = std::current_exception();
          }
        }
        // Cancel the unclaimed remainder; in-flight iterations still count
        // down through `done` so the caller's wait stays exact.
        int64_t expected = next.load(std::memory_order_relaxed);
        while (expected < n && !next.compare_exchange_weak(expected, n)) {
        }
        const int64_t cancelled = n - std::min<int64_t>(n, std::max<int64_t>(i + 1, expected));
        if (cancelled > 0 && done.fetch_add(cancelled) + cancelled == n) {
          finished.notify_all();
        }
      }
      if (done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        finished.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) {
  ALPA_CHECK_GE(num_threads, 1);
  queues_.resize(static_cast<size_t>(num_threads) + 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  // Run anything still queued (fire-and-forget Submit stragglers) so no
  // submitted task is silently dropped.
  for (auto& queue : queues_) {
    while (!queue.empty()) {
      auto fn = std::move(queue.front());
      queue.pop_front();
      fn();
    }
  }
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::Push(int self, std::function<void()> fn) {
  const size_t queue = self >= 0 ? static_cast<size_t>(self) : queues_.size() - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[queue].push_back(std::move(fn));
    if (Trace::enabled()) {
      size_t depth = 0;
      for (const auto& q : queues_) {
        depth += q.size();
      }
      static Metric* depth_metric = Metrics::Get("thread_pool/queue_depth");
      depth_metric->Set(static_cast<int64_t>(depth));
    }
  }
  wake_.notify_one();
}

void ThreadPool::Submit(std::function<void()> fn) {
  Push(tls_pool == this ? tls_worker_index : -1, std::move(fn));
}

bool ThreadPool::RunOneTask(int self) {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t own = self >= 0 ? static_cast<size_t>(self) : queues_.size() - 1;
    if (!queues_[own].empty()) {
      // Own deque: newest first, the classic work-stealing locality choice.
      task = std::move(queues_[own].back());
      queues_[own].pop_back();
    } else {
      // Steal: scan the other deques (overflow queue included) oldest
      // first, starting after our own slot so victims rotate.
      for (size_t k = 1; k < queues_.size() && !task; ++k) {
        auto& victim = queues_[(own + k) % queues_.size()];
        if (!victim.empty()) {
          task = std::move(victim.front());
          victim.pop_front();
        }
      }
    }
  }
  if (!task) {
    return false;
  }
  {
    // Category "pool": pool-task spans exist only when workers run, so the
    // "compile"-category span set stays thread-count invariant.
    TraceSpan span("pool_task", "pool");
    task();
  }
  return true;
}

void ThreadPool::WorkerMain(int index) {
  tls_pool = this;
  tls_worker_index = index;
  Trace::SetThreadName(StrFormat("pool worker %d", index));
  while (true) {
    if (RunOneTask(index)) {
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    bool queued = false;
    wake_.wait(lock, [this, &queued] {
      queued = false;
      for (const auto& queue : queues_) {
        queued |= !queue.empty();
      }
      return stop_ || queued;
    });
    // Workers drain what was submitted before shutdown, so those tasks run
    // on a worker (inside a pool_task span) rather than on the destructor's
    // thread.
    if (stop_ && !queued) {
      return;
    }
  }
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->fn = &fn;
  // One claim-loop task per worker; each drains the shared counter, so load
  // balances automatically however long individual iterations run.
  const int64_t helpers = std::min<int64_t>(num_threads(), n);
  for (int64_t t = 0; t < helpers; ++t) {
    Submit([state] { state->Drain(); });
  }
  // The caller participates too...
  state->Drain();
  // ...then helps with other queued work (possibly nested loops spawned by
  // our own iterations) until every iteration has finished.
  const int self = tls_pool == this ? tls_worker_index : -1;
  while (state->done.load() < n) {
    if (RunOneTask(self)) {
      continue;
    }
    std::unique_lock<std::mutex> lock(state->mu);
    state->finished.wait_for(lock, std::chrono::milliseconds(1),
                             [&] { return state->done.load() >= n; });
  }
  // After done == n no task will ever dereference `fn` again (stale tasks
  // see an exhausted counter), so returning is safe.
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || n <= 1) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace alpa
