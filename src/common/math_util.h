#ifndef MIRAGE_COMMON_MATH_UTIL_H
#define MIRAGE_COMMON_MATH_UTIL_H

/**
 * @file
 * Small integer math helpers used across the tiling, RNS, and BFP code.
 */

#include <bit>
#include <cstdint>

#include "common/logging.h"

namespace mirage {

/** Ceiling division for non-negative integers. */
inline int64_t
ceilDiv(int64_t num, int64_t den)
{
    MIRAGE_ASSERT(den > 0, "ceilDiv by non-positive denominator");
    MIRAGE_ASSERT(num >= 0, "ceilDiv of negative numerator");
    return (num + den - 1) / den;
}

/** Rounds `v` up to the next multiple of `mult`. */
inline int64_t
roundUp(int64_t v, int64_t mult)
{
    return ceilDiv(v, mult) * mult;
}

/** Floor of log2 for a positive integer. */
inline int
ilog2(uint64_t v)
{
    MIRAGE_ASSERT(v > 0, "ilog2 of zero");
    int b = -1;
    while (v) {
        v >>= 1;
        ++b;
    }
    return b;
}

/** Number of bits needed to represent `v` (ceil(log2(v)) for v > 1). */
inline int
bitsFor(uint64_t v)
{
    MIRAGE_ASSERT(v > 0, "bitsFor of zero");
    return (v == 1) ? 1 : ilog2(v - 1) + 1;
}

/** True when `v` is a power of two. */
inline bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * 2^e built from its IEEE-754 bit pattern; equal to std::ldexp(1.0, e) for
 * normal exponents e in [-1022, 1023].
 */
inline double
exactPow2(int e)
{
    return std::bit_cast<double>(static_cast<uint64_t>(e + 1023) << 52);
}

/** Greatest common divisor. */
inline uint64_t
gcd64(uint64_t a, uint64_t b)
{
    while (b) {
        uint64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

} // namespace mirage

#endif // MIRAGE_COMMON_MATH_UTIL_H
