/**
 * @file
 * Reed-Solomon RS(255, 223) codec over GF(2^8), the code class used
 * by the RSD benchmark accelerator. Corrects up to 16 symbol errors
 * per 255-byte codeword (syndromes, Berlekamp-Massey, Chien search,
 * Forney's algorithm).
 *
 * Table-driven: the field's exp/log tables, the encoder's coef x g[j]
 * product rows and the per-root syndrome multipliers are constexpr,
 * built at compile time and shared read-only by every thread.
 */

#ifndef OPTIMUS_ACCEL_ALGO_REED_SOLOMON_HH
#define OPTIMUS_ACCEL_ALGO_REED_SOLOMON_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace optimus::algo {

/** GF(2^8) arithmetic with the 0x11d primitive polynomial. */
class Gf256
{
  public:
    static std::uint8_t mul(std::uint8_t a, std::uint8_t b);
    static std::uint8_t div(std::uint8_t a, std::uint8_t b);
    static std::uint8_t inv(std::uint8_t a);
    /** alpha^i for i >= 0. */
    static std::uint8_t expTable(int i);
};

/** RS(n = 255, k = 223) encoder/decoder, t = 16. */
class ReedSolomon
{
  public:
    static constexpr std::size_t kN = 255; ///< codeword symbols
    static constexpr std::size_t kK = 223; ///< message symbols
    static constexpr std::size_t kParity = kN - kK;
    static constexpr std::size_t kT = kParity / 2; ///< correctable

    /** Lookup tables of the codec (16 KB). */
    struct Tables
    {
        /** Row c holds c * g_{j+1} for j < 2t, where g(x) =
         *  prod_{i<2t} (x - alpha^i) = x^2t + g_1 x^{2t-1} + ... +
         *  g_2t, packed as byte j % 8 of word j / 8: the feedback of
         *  one step of the encoder's LFSR, four word XORs. */
        std::array<std::array<std::uint64_t, kParity / 8>, 256> genMul;
        /** rootMul[i][x] = x * alpha^i: one Horner step of
         *  syndrome i. */
        std::array<std::array<std::uint8_t, 256>, kParity> rootMul;
    };
    static const Tables &tables();

    /**
     * Encode @p message (kK bytes) into @p codeword (kN bytes):
     * systematic, message first then parity.
     */
    static void encode(const std::uint8_t *message,
                       std::uint8_t *codeword);

    /**
     * Decode @p codeword (kN bytes) in place.
     * @return the number of symbol errors corrected, or -1 if the
     *         codeword was uncorrectable.
     */
    static int decode(std::uint8_t *codeword);
};

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_REED_SOLOMON_HH
