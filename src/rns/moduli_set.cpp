#include "rns/moduli_set.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace mirage {
namespace rns {

ModuliSet::ModuliSet(std::vector<uint64_t> moduli)
    : moduli_(std::move(moduli))
{
    if (moduli_.empty())
        MIRAGE_FATAL("moduli set must not be empty");
    for (size_t i = 0; i < moduli_.size(); ++i) {
        if (moduli_[i] < 2)
            MIRAGE_FATAL("modulus must be >= 2, got ", moduli_[i]);
        for (size_t j = i + 1; j < moduli_.size(); ++j) {
            if (gcd64(moduli_[i], moduli_[j]) != 1) {
                MIRAGE_FATAL("moduli ", moduli_[i], " and ", moduli_[j],
                             " are not co-prime");
            }
        }
    }
    for (uint64_t m : moduli_) {
        uint128 next = big_m_ * m;
        if (next / m != big_m_)
            MIRAGE_FATAL("dynamic range overflows 128 bits");
        big_m_ = next;
    }
    psi_ = (big_m_ - 1) / 2;
}

ModuliSet
ModuliSet::special(int k)
{
    if (k < 2 || k > 20)
        MIRAGE_FATAL("special moduli set requires 2 <= k <= 20, got ", k);
    const uint64_t two_k = uint64_t{1} << k;
    return ModuliSet({two_k - 1, two_k, two_k + 1});
}

double
ModuliSet::log2DynamicRange() const
{
    double bits = 0.0;
    for (uint64_t m : moduli_)
        bits += std::log2(static_cast<double>(m));
    return bits;
}

int
ModuliSet::converterBits(size_t i) const
{
    MIRAGE_ASSERT(i < moduli_.size(), "modulus index out of range");
    return bitsFor(moduli_[i]);
}

int
ModuliSet::maxConverterBits() const
{
    int bits = 0;
    for (size_t i = 0; i < moduli_.size(); ++i)
        bits = std::max(bits, converterBits(i));
    return bits;
}

bool
ModuliSet::canHoldDotProduct(int bm, int g) const
{
    MIRAGE_ASSERT(bm >= 1 && bm <= 31 && g >= 1, "invalid BFP parameters");
    // The largest chunk dot is g * 2^(2 bm) (every mantissa at -2^bm) and
    // must fit [-psi, psi]. Exact integers: the floating-point form admits
    // an even M at the bound, where psi = M/2 - 1 falls one short.
    return psi_ >= (static_cast<uint128>(g) << (2 * bm));
}

bool
ModuliSet::inSignedRange(int64_t x) const
{
    const uint128 mag = (x >= 0) ? static_cast<uint128>(x)
                                 : static_cast<uint128>(-(x + 1)) + 1;
    return mag <= psi_;
}

int
ModuliSet::minSpecialK(int bm, int g)
{
    for (int k = 2; k <= 20; ++k) {
        if (special(k).canHoldDotProduct(bm, g))
            return k;
    }
    MIRAGE_FATAL("no special moduli set up to k=20 satisfies Eq. (13) for bm=",
                 bm, " g=", g);
}

} // namespace rns
} // namespace mirage
