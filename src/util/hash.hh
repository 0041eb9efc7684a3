/**
 * @file
 * Streaming 64-bit hashers for content fingerprints.
 *
 * Two structurally independent accumulators (FNV-1a and a
 * multiply-rotate chain with a splitmix64 finalizer) are combined into
 * 128-bit
 * keys where a silent collision would corrupt results — e.g. the warp
 * profile cache, which replicates cached WarpStats verbatim and so
 * must treat key equality as content equality. Neither hash is
 * cryptographic; the pairing just pushes the collision probability for
 * realistic cache populations (< 2^20 entries) below ~2^-88.
 */

#ifndef RHYTHM_UTIL_HASH_HH
#define RHYTHM_UTIL_HASH_HH

#include <cstdint>

namespace rhythm::util {

/**
 * Streaming FNV-1a variant folding whole 64-bit words per step
 * (xor-then-multiply with the FNV prime). Word folding keeps the
 * xor-multiply structure of FNV — distinct from Mix64's add-and-
 * finalize chain — at one multiply per word instead of eight, which
 * matters because fingerprinting runs over every warp's full trace on
 * the profile cache hot path.
 */
class Fnv1a64
{
  public:
    static constexpr uint64_t kOffsetBasis = 1469598103934665603ull;
    static constexpr uint64_t kPrime = 1099511628211ull;

    constexpr void update(uint64_t word)
    {
        state_ = (state_ ^ word) * kPrime;
    }

    constexpr uint64_t digest() const { return state_; }

  private:
    uint64_t state_ = kOffsetBasis;
};

/**
 * Streaming multiply-rotate accumulator finalized with splitmix64 at
 * digest time. Each word is diffused by an odd-constant multiply (a
 * bijection) and folded in with an add-and-rotate, so word order and
 * position matter; the three-multiply splitmix finalizer runs once per
 * digest instead of once per word. Mixes through add-rotate rather
 * than FNV's xor-multiply chain, so its collisions are independent of
 * Fnv1a64's — and its one multiply per word has no data dependence on
 * the accumulator, letting it pipeline alongside Fnv1a64 on the
 * fingerprint hot path.
 */
class Mix64
{
  public:
    constexpr void update(uint64_t word)
    {
        const uint64_t diffused = word * 0x9e3779b97f4a7c15ull;
        state_ = rotl(state_ + diffused, 29);
    }

    constexpr uint64_t digest() const
    {
        uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    static constexpr uint64_t rotl(uint64_t v, int r)
    {
        return (v << r) | (v >> (64 - r));
    }

    uint64_t state_ = 0x6a09e667f3bcc909ull;
};

} // namespace rhythm::util

#endif // RHYTHM_UTIL_HASH_HH
