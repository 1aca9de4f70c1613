#include "accel/algo/reed_solomon.hh"

#include "sim/logging.hh"

namespace optimus::algo {

namespace {

constexpr std::size_t kN = ReedSolomon::kN;
constexpr std::size_t kK = ReedSolomon::kK;
constexpr std::size_t kParity = ReedSolomon::kParity;
constexpr std::size_t kT = ReedSolomon::kT;

/** exp/log tables of GF(2^8): exp[i] = alpha^i for i in [0, 510], so a
 *  sum of two logs needs no reduction; log[0] is never consulted. */
struct GfTables
{
    std::array<std::uint8_t, 512> exp{};
    std::array<std::uint8_t, 256> log{};
};

constexpr GfTables
makeGfTables()
{
    // Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d).
    GfTables t;
    unsigned x = 1;
    for (int i = 0; i < 255; ++i) {
        t.exp[i] = static_cast<std::uint8_t>(x);
        t.log[x] = static_cast<std::uint8_t>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11d;
    }
    for (int i = 255; i < 512; ++i)
        t.exp[i] = t.exp[i - 255];
    return t;
}

constexpr GfTables kGf = makeGfTables();

constexpr std::uint8_t
gfMul(std::uint8_t a, std::uint8_t b)
{
    return a == 0 || b == 0 ? 0 : kGf.exp[kGf.log[a] + kGf.log[b]];
}

/** c * alpha^e for 0 <= e < 255. */
constexpr std::uint8_t
mulExp(std::uint8_t c, int e)
{
    return c == 0 ? 0 : kGf.exp[kGf.log[c] + e];
}

constexpr std::size_t kWords = kParity / 8;

/** A polynomial of degree below 2t, highest term first, packed as in
 *  Tables::genMul: coefficient j is byte j % 8 of word j / 8. */
using Parity = std::array<std::uint64_t, kWords>;

constexpr std::uint8_t
byteOf(const Parity &p, std::size_t j)
{
    return static_cast<std::uint8_t>(p[j / 8] >> (8 * (j % 8)));
}

constexpr ReedSolomon::Tables
makeTables()
{
    // g(x) = prod_{i=0}^{2t-1} (x - alpha^i), highest-first and
    // monic: g[0] == 1.
    std::array<std::uint8_t, kParity + 1> g{};
    g[0] = 1;
    for (std::size_t i = 0; i < kParity; ++i) {
        for (std::size_t k = i + 1; k > 0; --k)
            g[k] ^= gfMul(g[k - 1], kGf.exp[i]);
    }

    ReedSolomon::Tables t{};
    for (unsigned c = 0; c < 256; ++c) {
        for (std::size_t j = 0; j < kParity; ++j) {
            const std::uint64_t prod =
                gfMul(static_cast<std::uint8_t>(c), g[j + 1]);
            t.genMul[c][j / 8] |= prod << (8 * (j % 8));
        }
    }
    for (std::size_t i = 0; i < kParity; ++i) {
        for (unsigned x = 0; x < 256; ++x)
            t.rootMul[i][x] =
                gfMul(static_cast<std::uint8_t>(x), kGf.exp[i]);
    }
    return t;
}

constexpr ReedSolomon::Tables kTables = makeTables();

/** M(x) x^2t mod g(x) for the kK-symbol message at @p message. */
Parity
parity(const std::uint8_t *message)
{
    Parity rem{};
    for (std::size_t i = 0; i < kK; ++i) {
        const Parity &row =
            kTables.genMul[static_cast<std::uint8_t>(rem[0]) ^
                           message[i]];
        // Shift out the leading coefficient, then add its feedback.
        for (std::size_t w = 0; w + 1 < kWords; ++w)
            rem[w] = (rem[w] >> 8 | rem[w + 1] << 56) ^ row[w];
        rem[kWords - 1] = rem[kWords - 1] >> 8 ^ row[kWords - 1];
    }
    return rem;
}

/** C(x) mod g(x) for the codeword at @p codeword: the recomputed
 *  parity minus the parity it carries. */
Parity
remainder(const std::uint8_t *codeword)
{
    Parity rem = parity(codeword);
    for (std::size_t j = 0; j < kParity; ++j)
        rem[j / 8] ^= std::uint64_t{codeword[kK + j]} << (8 * (j % 8));
    return rem;
}

} // namespace

std::uint8_t
Gf256::mul(std::uint8_t a, std::uint8_t b)
{
    return gfMul(a, b);
}

std::uint8_t
Gf256::div(std::uint8_t a, std::uint8_t b)
{
    OPTIMUS_ASSERT(b != 0, "GF(256) division by zero");
    if (a == 0)
        return 0;
    return kGf.exp[kGf.log[a] + 255 - kGf.log[b]];
}

std::uint8_t
Gf256::inv(std::uint8_t a)
{
    OPTIMUS_ASSERT(a != 0, "GF(256) inverse of zero");
    return kGf.exp[255 - kGf.log[a]];
}

std::uint8_t
Gf256::expTable(int i)
{
    return kGf.exp[i % 255];
}

const ReedSolomon::Tables &
ReedSolomon::tables()
{
    return kTables;
}

void
ReedSolomon::encode(const std::uint8_t *message, std::uint8_t *codeword)
{
    // Systematic encoding: remainder of M(x) * x^2t divided by g(x).
    const Parity rem = parity(message);
    for (std::size_t i = 0; i < kK; ++i)
        codeword[i] = message[i];
    for (std::size_t j = 0; j < kParity; ++j)
        codeword[kK + j] = byteOf(rem, j);
}

int
ReedSolomon::decode(std::uint8_t *codeword)
{
    // --- Syndromes: s_i = C(alpha^i), i = 0 .. 2t-1. Every alpha^i
    // is a root of g(x), so s_i = R(alpha^i) for the remainder
    // R(x) = C(x) mod g(x), and all of them vanish iff R does.
    const Parity rem = remainder(codeword);
    if (rem == Parity{})
        return 0;
    std::array<std::uint8_t, kParity> synd{};
    for (std::size_t j = 0; j < kParity; ++j) {
        const std::uint8_t r = byteOf(rem, j);
        for (std::size_t i = 0; i < kParity; ++i)
            synd[i] = kTables.rootMul[i][synd[i]] ^ r;
    }

    // --- Berlekamp-Massey: error locator sigma(x), lowest-first.
    // Neither sigma nor prev ever exceeds degree 2t.
    std::array<std::uint8_t, kParity + 1> sigma{};
    std::array<std::uint8_t, kParity + 1> prev{};
    sigma[0] = 1;
    prev[0] = 1;
    std::size_t L = 0;
    std::size_t m = 1;
    std::uint8_t b = 1;
    for (std::size_t n = 0; n < kParity; ++n) {
        std::uint8_t delta = synd[n];
        for (std::size_t i = 1; i <= L; ++i)
            delta ^= gfMul(sigma[i], synd[n - i]);
        if (delta == 0) {
            ++m;
            continue;
        }
        // sigma(x) -= (delta / b) x^m prev(x)
        const auto before = sigma;
        const int scale = kGf.log[Gf256::div(delta, b)];
        for (std::size_t i = 0; i + m <= kParity; ++i)
            sigma[i + m] ^= mulExp(prev[i], scale);
        if (2 * L <= n) {
            L = n + 1 - L;
            prev = before;
            b = delta;
            m = 1;
        } else {
            ++m;
        }
    }
    std::size_t degree = kParity;
    while (sigma[degree] == 0)
        --degree; // sigma[0] == 1
    if (L > kT || degree != L)
        return -1; // too many errors

    // --- Chien search: degrees j with sigma(alpha^{-j}) == 0. Each
    // term sigma_d alpha^{-jd} is kept as a log that steps by -d.
    std::array<int, kT + 1> term_log{};
    std::array<int, kT + 1> term_step{};
    std::size_t terms = 0;
    for (std::size_t d = 0; d <= L; ++d) {
        if (sigma[d] != 0) {
            term_log[terms] = kGf.log[sigma[d]];
            term_step[terms] = static_cast<int>(d);
            ++terms;
        }
    }
    std::array<int, kT> error_degrees{};
    std::size_t errors = 0;
    for (int j = 0; j < static_cast<int>(kN); ++j) {
        std::uint8_t y = 0;
        for (std::size_t k = 0; k < terms; ++k) {
            y ^= kGf.exp[term_log[k]];
            term_log[k] -= term_step[k];
            if (term_log[k] < 0)
                term_log[k] += 255;
        }
        if (y == 0) {
            // A degree-L locator has at most L roots; more means the
            // count check below fails anyway.
            if (errors == kT)
                return -1;
            error_degrees[errors++] = j;
        }
    }
    if (errors != L)
        return -1; // locator roots inconsistent: uncorrectable

    // --- Error evaluator Omega(x) = S(x) sigma(x) mod x^{2t},
    // lowest-first.
    std::array<std::uint8_t, kParity> omega{};
    for (std::size_t i = 0; i < kParity; ++i) {
        std::uint8_t acc = 0;
        for (std::size_t j = 0; j <= i && j <= L; ++j)
            acc ^= gfMul(sigma[j], synd[i - j]);
        omega[i] = acc;
    }

    // --- Forney: e_j = X_j * Omega(X_j^{-1}) / sigma'(X_j^{-1}).
    for (std::size_t r = 0; r < errors; ++r) {
        const int j = error_degrees[r];
        const int xinv = (255 - j) % 255; // log of X_j^{-1}

        std::uint8_t omega_v = 0;
        int e = 0;
        for (std::uint8_t c : omega) {
            omega_v ^= mulExp(c, e);
            e = (e + xinv) % 255;
        }

        // Formal derivative keeps odd-degree terms only in GF(2^m).
        std::uint8_t deriv_v = 0;
        e = 0; // xinv^0 multiplies the degree-1 coefficient
        for (std::size_t d = 1; d <= L; d += 2) {
            deriv_v ^= mulExp(sigma[d], e);
            e = (e + 2 * xinv) % 255;
        }
        if (deriv_v == 0)
            return -1;

        std::uint8_t magnitude = mulExp(Gf256::div(omega_v, deriv_v), j);
        codeword[kN - 1 - static_cast<std::size_t>(j)] ^= magnitude;
    }

    // Verify: recompute the syndromes; a decoding failure that
    // slipped through shows up here.
    if (remainder(codeword) != Parity{})
        return -1;
    return static_cast<int>(L);
}

} // namespace optimus::algo
