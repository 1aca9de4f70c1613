/**
 * @file
 * Tests for the Reed-Solomon codec, Smith-Waterman alignment, FIR
 * filter, Gaussian source, image kernels, and graph algorithms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "accel/algo/graph.hh"
#include "accel/algo/image.hh"
#include "accel/algo/reed_solomon.hh"
#include "accel/algo/signal.hh"
#include "accel/algo/smith_waterman.hh"
#include "sim/rng.hh"

using namespace optimus::algo;
using optimus::sim::Rng;

namespace {

// ---------------------------------------------------------------- GF256

TEST(Gf256Test, MulDivInverse)
{
    Gf256 gf;
    for (int a = 1; a < 256; ++a) {
        auto av = static_cast<std::uint8_t>(a);
        EXPECT_EQ(gf.mul(av, gf.inv(av)), 1);
        EXPECT_EQ(gf.div(av, av), 1);
        EXPECT_EQ(gf.mul(av, 1), av);
        EXPECT_EQ(gf.mul(av, 0), 0);
    }
}

TEST(Gf256Test, MulIsCommutativeAndDistributive)
{
    Gf256 gf;
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        auto a = static_cast<std::uint8_t>(rng.below(256));
        auto b = static_cast<std::uint8_t>(rng.below(256));
        auto c = static_cast<std::uint8_t>(rng.below(256));
        EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
        EXPECT_EQ(gf.mul(a, static_cast<std::uint8_t>(b ^ c)),
                  gf.mul(a, b) ^ gf.mul(a, c));
    }
}

/** Shift-and-add GF(2^8) product reduced by 0x11d, independent of
 *  any table. */
std::uint8_t
slowMul(unsigned a, unsigned b)
{
    unsigned p = 0;
    for (; b != 0; b >>= 1) {
        if (b & 1)
            p ^= a;
        a <<= 1;
        if (a & 0x100)
            a ^= 0x11d;
    }
    return static_cast<std::uint8_t>(p);
}

TEST(Gf256Test, MulMatchesShiftAndAddOnAllPairs)
{
    int mismatches = 0;
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = 0; b < 256; ++b) {
            mismatches += Gf256::mul(static_cast<std::uint8_t>(a),
                                     static_cast<std::uint8_t>(b)) !=
                          slowMul(a, b);
        }
    }
    EXPECT_EQ(mismatches, 0);
}

// ----------------------------------------------------------- ReedSolomon

TEST(ReedSolomonTest, CleanCodewordDecodesWithZeroErrors)
{
    ReedSolomon rs;
    std::uint8_t msg[ReedSolomon::kK];
    for (std::size_t i = 0; i < ReedSolomon::kK; ++i)
        msg[i] = static_cast<std::uint8_t>(i * 3 + 1);
    std::uint8_t cw[ReedSolomon::kN];
    rs.encode(msg, cw);
    EXPECT_EQ(rs.decode(cw), 0);
    EXPECT_EQ(0, std::memcmp(cw, msg, ReedSolomon::kK));
}

TEST(ReedSolomonTest, TablesMatchFieldMultiply)
{
    const ReedSolomon::Tables &t = ReedSolomon::tables();
    // genMul rows pack coefficient j as byte j % 8 of word j / 8.
    auto gen = [&](unsigned c, std::size_t j) {
        return static_cast<std::uint8_t>(t.genMul[c][j / 8] >>
                                         (8 * (j % 8)));
    };
    // genMul[1] is g(x) itself (below its monic x^2t term): it must
    // vanish at alpha^0 .. alpha^{2t-1} and nowhere else among the
    // next powers.
    auto g_at = [&](std::uint8_t x) {
        std::uint8_t y = 1;
        for (std::size_t j = 0; j < ReedSolomon::kParity; ++j)
            y = static_cast<std::uint8_t>(Gf256::mul(y, x) ^ gen(1, j));
        return y;
    };
    for (int i = 0; i < 40; ++i) {
        EXPECT_EQ(g_at(Gf256::expTable(i)) == 0,
                  i < static_cast<int>(ReedSolomon::kParity))
            << "alpha^" << i;
    }

    int mismatches = 0;
    for (unsigned c = 0; c < 256; ++c) {
        for (std::size_t j = 0; j < ReedSolomon::kParity; ++j) {
            mismatches += gen(c, j) != slowMul(c, gen(1, j));
        }
    }
    for (std::size_t i = 0; i < ReedSolomon::kParity; ++i) {
        for (unsigned x = 0; x < 256; ++x) {
            mismatches +=
                t.rootMul[i][x] !=
                slowMul(x, Gf256::expTable(static_cast<int>(i)));
        }
    }
    EXPECT_EQ(mismatches, 0);
}

class ReedSolomonErrorTest
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ReedSolomonErrorTest, CorrectsUpToTErrors)
{
    const std::size_t nerr = GetParam();
    ReedSolomon rs;
    Rng rng(1000 + nerr);

    for (int trial = 0; trial < 20; ++trial) {
        std::uint8_t msg[ReedSolomon::kK];
        for (auto &b : msg)
            b = static_cast<std::uint8_t>(rng.next());
        std::uint8_t cw[ReedSolomon::kN];
        rs.encode(msg, cw);

        std::set<std::size_t> pos;
        while (pos.size() < nerr)
            pos.insert(rng.below(ReedSolomon::kN));
        for (std::size_t p : pos)
            cw[p] ^= static_cast<std::uint8_t>(1 + rng.below(255));

        EXPECT_EQ(rs.decode(cw), static_cast<int>(nerr));
        EXPECT_EQ(0, std::memcmp(cw, msg, ReedSolomon::kK));
    }
}

INSTANTIATE_TEST_SUITE_P(ErrorCounts, ReedSolomonErrorTest,
                         ::testing::Values(1, 2, 3, 4, 8, 12, 15,
                                           16));

TEST(ReedSolomonTest, RejectsTooManyErrors)
{
    ReedSolomon rs;
    Rng rng(77);
    int failures = 0;
    for (int trial = 0; trial < 10; ++trial) {
        std::uint8_t msg[ReedSolomon::kK];
        for (auto &b : msg)
            b = static_cast<std::uint8_t>(rng.next());
        std::uint8_t cw[ReedSolomon::kN];
        rs.encode(msg, cw);
        // Twice the correctable budget: must not mis-decode.
        std::set<std::size_t> pos;
        while (pos.size() < 2 * ReedSolomon::kT + 2)
            pos.insert(rng.below(ReedSolomon::kN));
        for (std::size_t p : pos)
            cw[p] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        int rc = rs.decode(cw);
        if (rc < 0)
            ++failures;
    }
    // Detection is overwhelmingly likely (not guaranteed by theory).
    EXPECT_GE(failures, 8);
}

/** FNV-1a over @p n bytes, folded into @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

/**
 * Golden digests of a seeded corpus: the encoder's codewords, and for
 * every error count 0..2t+2 plus wholly random words, the decoder's
 * return code and the whole buffer it leaves behind, correctable or
 * not. The values were captured from the log/exp codec that preceded
 * the table-driven one, so a change to any output, or to the L > t and
 * root-count rejections, shows here. (No known input reaches the
 * zero-derivative or syndrome re-check rejections.)
 */
TEST(ReedSolomonTest, GoldenCorpusDigest)
{
    ReedSolomon rs;
    Rng rng(20200316);
    std::uint64_t enc = 0xcbf29ce484222325ULL;
    std::uint64_t dec = enc;
    int rejected = 0;
    auto decode_and_fold = [&](std::uint8_t *cw) {
        const std::int32_t rc = rs.decode(cw);
        dec = fnv1a(dec, &rc, sizeof(rc));
        dec = fnv1a(dec, cw, ReedSolomon::kN);
        rejected += rc < 0;
    };

    for (std::size_t nerr = 0; nerr <= 2 * ReedSolomon::kT + 2;
         ++nerr) {
        for (int trial = 0; trial < 32; ++trial) {
            std::uint8_t msg[ReedSolomon::kK];
            for (auto &b : msg)
                b = static_cast<std::uint8_t>(rng.next());
            std::uint8_t cw[ReedSolomon::kN];
            rs.encode(msg, cw);
            enc = fnv1a(enc, cw, sizeof(cw));

            std::set<std::size_t> pos;
            while (pos.size() < nerr)
                pos.insert(rng.below(ReedSolomon::kN));
            for (std::size_t p : pos)
                cw[p] ^= static_cast<std::uint8_t>(1 + rng.below(255));
            decode_and_fold(cw);
        }
    }
    for (int trial = 0; trial < 64; ++trial) {
        std::uint8_t cw[ReedSolomon::kN];
        for (auto &b : cw)
            b = static_cast<std::uint8_t>(rng.next());
        decode_and_fold(cw);
    }

    EXPECT_EQ(enc, 0x131d2020529b7475ULL);
    EXPECT_EQ(dec, 0x8f6e4522331b144eULL);
    EXPECT_EQ(rejected, 640); // every word beyond t errors
}

// --------------------------------------------------------- SmithWaterman

TEST(SmithWatermanTest, KnownAlignments)
{
    // Identical strings: every char matches.
    EXPECT_EQ(smithWatermanScore("ACGT", "ACGT"), 8);
    // Disjoint alphabets: no positive-scoring local alignment.
    EXPECT_EQ(smithWatermanScore("AAAA", "GGGG"), 0);
    // Single best local match.
    EXPECT_EQ(smithWatermanScore("A", "A"), 2);
    EXPECT_EQ(smithWatermanScore("", "ACGT"), 0);
    // Local alignment ignores a bad prefix/suffix.
    EXPECT_EQ(smithWatermanScore("TTTTACGT", "ACGT"), 8);
}

TEST(SmithWatermanTest, GapBeatsDoubleMismatch)
{
    // "ACGT" vs "ACT": align ACT with one gap: 3 matches (6) - 1
    // gap = 5.
    EXPECT_EQ(smithWatermanScore("ACGT", "ACT"), 5);
}

TEST(SmithWatermanTest, SymmetricArguments)
{
    Rng rng(4);
    static const char alpha[] = "ACGT";
    for (int trial = 0; trial < 20; ++trial) {
        std::string a;
        std::string b;
        for (int i = 0; i < 50; ++i)
            a.push_back(alpha[rng.below(4)]);
        for (int i = 0; i < 70; ++i)
            b.push_back(alpha[rng.below(4)]);
        EXPECT_EQ(smithWatermanScore(a, b),
                  smithWatermanScore(b, a));
    }
}

/** Textbook full-matrix Smith-Waterman, the reference for the
 *  two-row kernel. */
std::int32_t
naiveSmithWaterman(const std::string &a, const std::string &b,
                   const SwParams &p)
{
    std::vector<std::vector<std::int32_t>> h(
        a.size() + 1, std::vector<std::int32_t>(b.size() + 1, 0));
    std::int32_t best = 0;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::int32_t s = a[i - 1] == b[j - 1] ? p.match : p.mismatch;
            h[i][j] = std::max({0, h[i - 1][j - 1] + s,
                                h[i - 1][j] + p.gap,
                                h[i][j - 1] + p.gap});
            best = std::max(best, h[i][j]);
        }
    }
    return best;
}

TEST(SmithWatermanTest, MatchesFullMatrixReference)
{
    Rng rng(2024);
    for (int trial = 0; trial < 300; ++trial) {
        // Small alphabets give long matches; a large one, few.
        const std::size_t alpha = 1 + rng.below(trial % 3 == 0 ? 20 : 4);
        std::string a(rng.below(70), 'A');
        std::string b(rng.below(70), 'A');
        for (auto &c : a)
            c = static_cast<char>('A' + rng.below(alpha));
        for (auto &c : b)
            c = static_cast<char>('A' + rng.below(alpha));
        SwParams p;
        p.match = static_cast<std::int32_t>(rng.below(6));
        p.mismatch = -static_cast<std::int32_t>(rng.below(5));
        p.gap = -static_cast<std::int32_t>(rng.below(5));
        EXPECT_EQ(smithWatermanScore(a, b, p),
                  naiveSmithWaterman(a, b, p))
            << "trial " << trial << ": " << a << " / " << b;
    }
}

// ------------------------------------------------------------------ FIR

TEST(FirTest, ImpulseResponseIsTaps)
{
    Fir16 fir(Fir16::defaultTaps());
    std::vector<std::int32_t> x(32, 0);
    x[0] = 1024; // scaled impulse (output is >> 10)
    auto y = fir.filter(x);
    for (std::size_t k = 0; k < Fir16::kTaps; ++k)
        EXPECT_EQ(y[k], fir.taps()[k]);
    for (std::size_t k = Fir16::kTaps; k < x.size(); ++k)
        EXPECT_EQ(y[k], 0);
}

TEST(FirTest, DcGainMatchesTapSum)
{
    Fir16 fir(Fir16::defaultTaps());
    std::int64_t tap_sum = 0;
    for (auto t : fir.taps())
        tap_sum += t;
    std::vector<std::int32_t> x(64, 1024);
    auto y = fir.filter(x);
    // After the filter fills, output = 1024 * sum / 1024 = sum.
    EXPECT_EQ(y.back(), tap_sum);
}

TEST(FirTest, StepMatchesFilter)
{
    Fir16 fir(Fir16::defaultTaps());
    Rng rng(5);
    std::vector<std::int32_t> x(100);
    for (auto &v : x)
        v = static_cast<std::int32_t>(rng.below(100000)) - 50000;
    auto y = fir.filter(x);

    std::int32_t history[Fir16::kTaps] = {};
    for (std::size_t n = 0; n < x.size(); ++n) {
        for (std::size_t k = Fir16::kTaps - 1; k > 0; --k)
            history[k] = history[k - 1];
        history[0] = x[n];
        EXPECT_EQ(fir.step(history), y[n]) << "at sample " << n;
    }
}

// ------------------------------------------------------------- Gaussian

TEST(GaussianSourceTest, DeterministicPerSeed)
{
    GaussianSource a(42);
    GaussianSource b(42);
    GaussianSource c(43);
    bool all_same_c = true;
    for (int i = 0; i < 100; ++i) {
        double va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            all_same_c = false;
    }
    EXPECT_FALSE(all_same_c);
}

TEST(GaussianSourceTest, MomentsAreApproximatelyStandardNormal)
{
    GaussianSource src(7);
    const int n = 200000;
    double sum = 0;
    double sum2 = 0;
    for (int i = 0; i < n; ++i) {
        double v = src.next();
        sum += v;
        sum2 += v * v;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(GaussianSourceTest, StateRoundTrip)
{
    GaussianSource a(9);
    for (int i = 0; i < 7; ++i)
        a.next();
    auto st = a.state();
    GaussianSource b(1);
    b.setState(st);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// ---------------------------------------------------------------- image

TEST(ImageTest, LumaWeights)
{
    std::uint8_t white[4] = {255, 255, 255, 0};
    std::uint8_t black[4] = {0, 0, 0, 0};
    std::uint8_t red[4] = {255, 0, 0, 0};
    EXPECT_EQ(rgbxLuma(white), 255);
    EXPECT_EQ(rgbxLuma(black), 0);
    EXPECT_EQ(rgbxLuma(red), (77 * 255) >> 8);
}

TEST(ImageTest, GaussianPreservesFlatField)
{
    GrayImage img{8, 8, std::vector<std::uint8_t>(64, 200)};
    GrayImage out = gaussianBlur3x3(img);
    for (auto p : out.pixels)
        EXPECT_EQ(p, 200);
}

TEST(ImageTest, SobelFlatFieldIsZero)
{
    GrayImage img{8, 8, std::vector<std::uint8_t>(64, 123)};
    GrayImage out = sobel3x3(img);
    for (auto p : out.pixels)
        EXPECT_EQ(p, 0);
}

TEST(ImageTest, SobelDetectsVerticalEdge)
{
    GrayImage img{8, 4, std::vector<std::uint8_t>(32, 0)};
    for (std::uint32_t y = 0; y < 4; ++y) {
        for (std::uint32_t x = 4; x < 8; ++x)
            img.pixels[y * 8 + x] = 255;
    }
    GrayImage out = sobel3x3(img);
    // Columns far from the edge are flat; the edge columns light up.
    EXPECT_EQ(out.pixels[1 * 8 + 1], 0);
    EXPECT_EQ(out.pixels[1 * 8 + 6], 0);
    EXPECT_EQ(out.pixels[1 * 8 + 3], 255);
    EXPECT_EQ(out.pixels[1 * 8 + 4], 255);
}

TEST(ImageTest, EdgeClampMatchesReplication)
{
    // A 1-pixel-high image: blur must behave as if rows replicate.
    GrayImage img{8, 1, {10, 20, 30, 40, 50, 60, 70, 80}};
    GrayImage out = gaussianBlur3x3(img);
    // Kernel columns sum 4-8-4 over a replicated row.
    EXPECT_EQ(out.pixels[0],
              (4 * 10 + 8 * 10 + 4 * 20) >> 4);
}

// ---------------------------------------------------------------- graph

TEST(GraphTest, RandomGraphHasRequestedShape)
{
    auto g = makeRandomGraph(100, 1000, 63, 5);
    EXPECT_EQ(g.numVertices(), 100u);
    EXPECT_EQ(g.numEdges(), 1000u);
    EXPECT_EQ(g.rowptr.front(), 0u);
    EXPECT_EQ(g.rowptr.back(), 1000u);
    for (auto w : g.weight) {
        EXPECT_GE(w, 1u);
        EXPECT_LE(w, 63u);
    }
    for (auto d : g.dest)
        EXPECT_LT(d, 100u);
}

TEST(GraphTest, DeterministicPerSeed)
{
    auto a = makeRandomGraph(50, 500, 63, 9);
    auto b = makeRandomGraph(50, 500, 63, 9);
    EXPECT_EQ(a.dest, b.dest);
    EXPECT_EQ(a.weight, b.weight);
}

TEST(GraphTest, BellmanFordMatchesDijkstra)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto g = makeRandomGraph(200, 2000, 63, seed);
        auto d1 = dijkstra(g, 0);
        auto d2 = bellmanFord(g, 0);
        EXPECT_EQ(d1, d2) << "seed " << seed;
    }
}

TEST(GraphTest, SourceDistanceIsZeroAndTriangleInequalityHolds)
{
    auto g = makeRandomGraph(300, 3000, 31, 11);
    auto d = dijkstra(g, 0);
    EXPECT_EQ(d[0], 0u);
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        if (d[v] == kDistInf)
            continue;
        for (std::uint32_t e = g.rowptr[v]; e < g.rowptr[v + 1];
             ++e) {
            EXPECT_LE(d[g.dest[e]], d[v] + g.weight[e]);
        }
    }
}

} // namespace
