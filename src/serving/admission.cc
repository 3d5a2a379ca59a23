#include "serving/admission.h"

namespace csc {

// ---------------------------------------------------------------------------
// AdmissionQueue

AdmissionQueue::AdmissionQueue(AdmissionQueueOptions options)
    : options_(options) {}

bool AdmissionQueue::AdmitLocked(uint64_t units) {
  const uint64_t high = options_.high_watermark;
  if (high == 0) return true;
  const uint64_t low =
      options_.low_watermark == 0 ? high : options_.low_watermark;
  if (in_flight_ + units > high) {
    shedding_ = true;
    return false;
  }
  if (shedding_) {
    if (in_flight_ > low) return false;  // not drained to the low mark yet
    shedding_ = false;
  }
  return true;
}

bool AdmissionQueue::TryAcquire(uint64_t units) {
  MutexLock lock(mu_);
  if (!AdmitLocked(units)) {
    ++shed_;
    return false;
  }
  in_flight_ += units;
  ++admitted_;
  return true;
}

bool AdmissionQueue::AcquireUntil(uint64_t units, const Deadline& deadline) {
  MutexLock lock(mu_);
  bool waited = false;
  while (!AdmitLocked(units)) {
    if (deadline.expired()) {
      ++shed_;
      return false;
    }
    waited = true;
    if (deadline.unbounded()) {
      room_cv_.Wait(lock);
    } else {
      (void)room_cv_.WaitFor(lock, deadline.remaining());
    }
  }
  if (waited) ++blocked_;
  in_flight_ += units;
  ++admitted_;
  return true;
}

void AdmissionQueue::Release(uint64_t units) {
  MutexLock lock(mu_);
  in_flight_ -= std::min(units, in_flight_);
  room_cv_.NotifyAll();
}

uint64_t AdmissionQueue::in_flight() const {
  MutexLock lock(mu_);
  return in_flight_;
}

bool AdmissionQueue::shedding() const {
  MutexLock lock(mu_);
  return shedding_;
}

uint64_t AdmissionQueue::admitted() const {
  MutexLock lock(mu_);
  return admitted_;
}

uint64_t AdmissionQueue::shed() const {
  MutexLock lock(mu_);
  return shed_;
}

uint64_t AdmissionQueue::blocked() const {
  MutexLock lock(mu_);
  return blocked_;
}

// ---------------------------------------------------------------------------
// CircuitBreaker

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options) {}

void CircuitBreaker::TransitionLocked(State next) {
  if (state_ == next) return;
  state_ = next;
  ++transitions_;
}

bool CircuitBreaker::Allow() {
  MutexLock lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      const Deadline::Clock::time_point now = Deadline::Clock::now();
      if (now - opened_at_ < options_.cooldown) return false;
      TransitionLocked(State::kHalfOpen);
      half_open_in_flight_ = 1;
      return true;
    }
    case State::kHalfOpen:
      if (half_open_in_flight_ >= options_.half_open_probes) return false;
      ++half_open_in_flight_;
      return true;
  }
  return false;  // unreachable
}

void CircuitBreaker::RecordSuccess() {
  MutexLock lock(mu_);
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      // One good probe closes the breaker.
      half_open_in_flight_ = 0;
      consecutive_failures_ = 0;
      TransitionLocked(State::kClosed);
      break;
    case State::kOpen:
      // A straggler from before the trip; the cooldown clock stands.
      break;
  }
}

void CircuitBreaker::RecordFailure() {
  MutexLock lock(mu_);
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        TransitionLocked(State::kOpen);
        opened_at_ = Deadline::Clock::now();
      }
      break;
    case State::kHalfOpen:
      // A failed probe reopens the breaker and restarts the cooldown.
      half_open_in_flight_ = 0;
      TransitionLocked(State::kOpen);
      opened_at_ = Deadline::Clock::now();
      break;
    case State::kOpen:
      break;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  MutexLock lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::transitions() const {
  MutexLock lock(mu_);
  return transitions_;
}

}  // namespace csc
