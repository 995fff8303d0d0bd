#include "common/rng.hpp"

#include <cmath>

namespace dbsim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint32_t
Rng::runLength(double cont, std::uint32_t max)
{
    std::uint32_t n = 1;
    while (n < max && chance(cont))
        ++n;
    return n;
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    // Inverse-CDF approximation for the continuous analogue, then clamp.
    // Adequate for workload skew modeling; exactness is not required.
    const double u = uniform();
    if (s == 1.0) {
        const double h = std::log(static_cast<double>(n));
        return static_cast<std::uint64_t>(std::exp(u * h)) - 1;
    }
    const double p = 1.0 - s;
    const double nn = static_cast<double>(n);
    const double x = std::pow(u * (std::pow(nn, p) - 1.0) + 1.0, 1.0 / p);
    std::uint64_t idx = static_cast<std::uint64_t>(x) - 1;
    return idx >= n ? n - 1 : idx;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

} // namespace dbsim
