#include "sim/rng.hpp"

#include <stdexcept>

namespace pftk::sim {

std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  return splitmix64(splitmix64(seed) ^
                    splitmix64(stream * 0xda942042e4dd58b5ULL + 1));
}

Rng Rng::derive(std::uint64_t seed, std::uint64_t stream) {
  return Rng(derive_stream_seed(seed, stream));
}

void Rng::seed_engine() { engine_.emplace(seed_); }

double Rng::exponential(double mean) {
  if (!(mean > 0.0)) {
    throw std::invalid_argument("Rng::exponential: mean must be positive");
  }
  return std::exponential_distribution<double>(1.0 / mean)(engine());
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  if (hi < lo) {
    throw std::invalid_argument("Rng::uniform_int: hi < lo");
  }
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine());
}

}  // namespace pftk::sim
