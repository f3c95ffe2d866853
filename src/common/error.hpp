#pragma once
// Error handling: all precondition/invariant violations throw vs::Error.
//
// Per the Core Guidelines (I.5/I.6, E.*) we state preconditions and check
// them; a violated contract in a simulation is a bug in either the caller or
// the model, never something to limp past, so we throw with a message that
// carries the failing expression and location.

#include <sstream>
#include <stdexcept>
#include <string>

namespace vs {

/// Library-wide exception type.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void raise_requirement_failure(const char* expr, const char* file,
                                            int line, const std::string& msg);
}  // namespace detail

}  // namespace vs

/// Checked requirement; always on (simulation correctness beats speed here;
/// hot paths that profiled as bottlenecks use VS_DCHECK instead). The
/// message is formatted and thrown in a cold, never-inlined lambda, so a
/// passing check costs its caller one compare and branch and leaves small
/// accessors inlinable.
#define VS_REQUIRE(expr, ...)                                                \
  do {                                                                       \
    if (!(expr)) [[unlikely]] {                                              \
      [&]() __attribute__((cold, noinline, noreturn)) {                      \
        ::std::ostringstream vs_require_os_;                                 \
        vs_require_os_ << "" __VA_ARGS__;                                    \
        ::vs::detail::raise_requirement_failure(#expr, __FILE__, __LINE__,   \
                                                vs_require_os_.str());       \
      }();                                                                   \
    }                                                                        \
  } while (false)

/// Debug-only check for hot paths.
#ifdef NDEBUG
#define VS_DCHECK(expr, ...) \
  do {                       \
  } while (false)
#else
#define VS_DCHECK(expr, ...) VS_REQUIRE(expr, __VA_ARGS__)
#endif
