#include "stats/rng.hpp"

#include <cmath>

namespace dlb::stats {

double Rng::normal() noexcept {
  // Marsaglia polar method; we do not cache the second deviate to keep the
  // generator state a pure function of the number of calls.
  for (;;) {
    const double u = 2.0 * uniform() - 1.0;
    const double v = 2.0 * uniform() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

}  // namespace dlb::stats
