// Simulated-time value types.
//
// The discrete-event simulator advances an integer nanosecond clock. Wrapping the
// raw int64_t in small value types prevents unit confusion (e.g. adding microseconds
// to a nanosecond count) at zero runtime cost.

#ifndef FAASNAP_SRC_COMMON_SIM_TIME_H_
#define FAASNAP_SRC_COMMON_SIM_TIME_H_

#include <compare>
#include <cstdint>
#include <string>

#include "src/common/units.h"

namespace faasnap {

// A span of simulated time. Non-negative in almost all uses. The unit-scaling
// factories abort on int64 overflow (in every build flavor: they run on
// config/literal paths where a silent wrap once produced a negative deadline);
// +/- are overflow-checked in debug builds only, since they run per-fault.
class Duration {
 public:
  constexpr Duration() : ns_(0) {}
  static constexpr Duration Nanos(int64_t n) { return Duration(n); }
  static constexpr Duration Micros(int64_t n) {
    return Duration(unit_internal::CheckedScaleI64(n, 1000, "Duration::Micros"));
  }
  static constexpr Duration Millis(int64_t n) {
    return Duration(unit_internal::CheckedScaleI64(n, 1000000, "Duration::Millis"));
  }
  static constexpr Duration Seconds(int64_t n) {
    return Duration(unit_internal::CheckedScaleI64(n, 1000000000, "Duration::Seconds"));
  }
  static constexpr Duration Zero() { return Duration(0); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double micros() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double millis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }

  std::string ToString() const { return FormatDuration(ns_); }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration operator+(Duration other) const {
    return Duration(unit_internal::DebugCheckedAddI64(ns_, other.ns_, "Duration +"));
  }
  constexpr Duration operator-(Duration other) const {
    return Duration(unit_internal::DebugCheckedSubI64(ns_, other.ns_, "Duration -"));
  }
  constexpr Duration& operator+=(Duration other) { return *this = *this + other; }
  constexpr Duration& operator-=(Duration other) { return *this = *this - other; }
  constexpr Duration operator*(int64_t k) const { return Duration(ns_ * k); }
  constexpr Duration operator/(int64_t k) const { return Duration(ns_ / k); }

 private:
  explicit constexpr Duration(int64_t ns) : ns_(ns) {}
  int64_t ns_;
};

// An instant on the simulated clock (nanoseconds since simulation start).
class SimTime {
 public:
  constexpr SimTime() : ns_(0) {}
  static constexpr SimTime FromNanos(int64_t n) { return SimTime(n); }

  constexpr int64_t nanos() const { return ns_; }
  std::string ToString() const { return FormatDuration(ns_); }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(Duration d) const { return SimTime(ns_ + d.nanos()); }
  constexpr Duration operator-(SimTime other) const { return Duration::Nanos(ns_ - other.ns_); }
  constexpr SimTime& operator+=(Duration d) {
    ns_ += d.nanos();
    return *this;
  }

 private:
  explicit constexpr SimTime(int64_t ns) : ns_(ns) {}
  int64_t ns_;
};

constexpr SimTime Max(SimTime a, SimTime b) { return a < b ? b : a; }
constexpr SimTime Min(SimTime a, SimTime b) { return a < b ? a : b; }
constexpr Duration Max(Duration a, Duration b) { return a < b ? b : a; }
constexpr Duration Min(Duration a, Duration b) { return a < b ? a : b; }

}  // namespace faasnap

#endif  // FAASNAP_SRC_COMMON_SIM_TIME_H_
