// Token-bucket admission rate limiter of the HTTP front end
// (net/reactor_server.h): a bucket of `burst` tokens refilled at
// `rate_per_second`, one token per admitted request.
// Rejections report how long until a token will exist, which the shared
// RateLimitedError (net/http_codec.h) turns into a Retry-After header.
//
// The clocked core (TryAcquireAt) is pure in (state, now) so tests drive it
// with a manual clock; TryAcquire samples steady_clock. Thread-safe behind
// a mutex, so a caller need not know which thread admits requests; the
// reactor acquires from its loop thread.

#ifndef REPTILE_NET_TOKEN_BUCKET_H_
#define REPTILE_NET_TOKEN_BUCKET_H_

#include <chrono>
#include <mutex>

namespace reptile {

class TokenBucket {
 public:
  /// `rate_per_second` tokens accrue continuously up to a cap of `burst`
  /// (<= 0 defaults the cap to max(rate, 1) — one second of headroom). The
  /// bucket starts full, so a cold server admits an initial burst.
  TokenBucket(double rate_per_second, double burst)
      : rate_(rate_per_second),
        burst_(burst > 0.0 ? burst : (rate_per_second > 1.0 ? rate_per_second : 1.0)),
        tokens_(burst_) {}

  /// Consumes one token if available. On refusal, `*retry_after_seconds` is
  /// the time until a full token will have accrued (0 written on success).
  bool TryAcquire(double* retry_after_seconds) {
    return TryAcquireAt(
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count(),
        retry_after_seconds);
  }

  /// The clocked core: `now_seconds` must be non-decreasing across calls
  /// (a stale timestamp is clamped, never refunds tokens).
  bool TryAcquireAt(double now_seconds, double* retry_after_seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    if (have_last_) {
      double elapsed = now_seconds - last_seconds_;
      if (elapsed > 0.0) {
        tokens_ += elapsed * rate_;
        if (tokens_ > burst_) tokens_ = burst_;
        last_seconds_ = now_seconds;
      }
    } else {
      have_last_ = true;
      last_seconds_ = now_seconds;
    }
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      *retry_after_seconds = 0.0;
      return true;
    }
    *retry_after_seconds = rate_ > 0.0 ? (1.0 - tokens_) / rate_ : 1.0;
    return false;
  }

  double rate() const { return rate_; }
  double burst() const { return burst_; }

 private:
  const double rate_;
  const double burst_;
  std::mutex mu_;
  double tokens_;
  double last_seconds_ = 0.0;
  bool have_last_ = false;
};

}  // namespace reptile

#endif  // REPTILE_NET_TOKEN_BUCKET_H_
