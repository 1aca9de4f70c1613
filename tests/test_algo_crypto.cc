/**
 * @file
 * Known-answer tests for the cryptographic kernels: FIPS-197 AES
 * vectors, RFC 1321 MD5 vectors, FIPS 180-4 SHA vectors, and
 * serialization round-trips used by accelerator preemption.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "accel/algo/aes128.hh"
#include "accel/algo/md5.hh"
#include "accel/algo/sha.hh"

using namespace optimus::algo;

namespace {

std::string
hex(const std::uint8_t *data, std::size_t len)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
        s.push_back(digits[data[i] >> 4]);
        s.push_back(digits[data[i] & 0xf]);
    }
    return s;
}

TEST(Aes128Test, Fips197AppendixB)
{
    // FIPS-197 Appendix B example.
    Aes128::Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                       0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                       0x4f, 0x3c};
    std::uint8_t block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                              0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                              0xe0, 0x37, 0x07, 0x34};
    Aes128 aes(key);
    aes.encryptBlock(block);
    EXPECT_EQ(hex(block, 16), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128Test, Fips197AppendixCExample)
{
    // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...
    Aes128::Key key;
    for (int i = 0; i < 16; ++i)
        key[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i);
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i)
        block[i] = static_cast<std::uint8_t>(i * 0x11);
    Aes128 aes(key);
    aes.encryptBlock(block);
    EXPECT_EQ(hex(block, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128Test, EcbEncryptsEveryBlockIndependently)
{
    Aes128::Key key{};
    Aes128 aes(key);
    std::uint8_t buf[64] = {};
    aes.encryptEcb(buf, sizeof(buf));
    // Identical plaintext blocks yield identical ciphertext blocks.
    EXPECT_EQ(0, std::memcmp(buf, buf + 16, 16));
    EXPECT_EQ(0, std::memcmp(buf, buf + 32, 16));
}

TEST(Md5Test, Rfc1321Vectors)
{
    auto check = [](const std::string &in, const std::string &want) {
        Md5::Digest d = Md5::hash(in.data(), in.size());
        EXPECT_EQ(hex(d.data(), d.size()), want) << "input: " << in;
    };
    check("", "d41d8cd98f00b204e9800998ecf8427e");
    check("a", "0cc175b9c0f1b6a831c399e269772661");
    check("abc", "900150983cd24fb0d6963f7d28e17f72");
    check("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    check("abcdefghijklmnopqrstuvwxyz",
          "c3fcd3d76192e4007dfb496cca67e13b");
    check("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123"
          "456789",
          "d174ab98d277d9f5a5611c2c9f419d9f");
    check("1234567890123456789012345678901234567890123456789012345"
          "6789012345678901234567890",
          "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot)
{
    std::string input(1000, 'x');
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<char>('a' + i % 26);

    Md5 inc;
    for (std::size_t off = 0; off < input.size(); off += 37) {
        std::size_t n = std::min<std::size_t>(37, input.size() - off);
        inc.update(input.data() + off, n);
    }
    EXPECT_EQ(inc.finish(), Md5::hash(input.data(), input.size()));
}

TEST(Md5Test, SerializeRoundTrip)
{
    std::string part1 = "The quick brown fox ";
    std::string part2 = "jumps over the lazy dog";

    Md5 a;
    a.update(part1.data(), part1.size());
    auto blob = a.serialize();

    Md5 b;
    b.deserialize(blob);
    b.update(part2.data(), part2.size());
    a.update(part2.data(), part2.size());
    EXPECT_EQ(a.finish(), b.finish());
}

TEST(Sha256Test, Fips180Vectors)
{
    auto d1 = Sha256::hash("abc", 3);
    EXPECT_EQ(hex(d1.data(), d1.size()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410f"
              "f61f20015ad");
    auto d2 = Sha256::hash("", 0);
    EXPECT_EQ(hex(d2.data(), d2.size()),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495"
              "991b7852b855");
    std::string two_blocks =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    auto d3 = Sha256::hash(two_blocks.data(), two_blocks.size());
    EXPECT_EQ(hex(d3.data(), d3.size()),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ec"
              "edd419db06c1");
}

TEST(Sha256Test, DoubleHashMatchesComposition)
{
    std::string msg = "bitcoin block header";
    auto once = Sha256::hash(msg.data(), msg.size());
    auto twice = Sha256::hash(once.data(), once.size());
    EXPECT_EQ(Sha256::doubleHash(msg.data(), msg.size()), twice);
}

TEST(Sha512Test, Fips180Vectors)
{
    auto d1 = Sha512::hash("abc", 3);
    EXPECT_EQ(hex(d1.data(), d1.size()),
              "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9e"
              "eee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423"
              "643ce80e2a9ac94fa54ca49f");
    auto d2 = Sha512::hash("", 0);
    EXPECT_EQ(hex(d2.data(), d2.size()),
              "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4"
              "a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd"
              "47417a81a538327af927da3e");
}

TEST(Sha512Test, IncrementalAndSerializeRoundTrip)
{
    std::string input(4096, 0);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<char>(i % 251);

    Sha512 a;
    a.update(input.data(), 1000);
    auto blob = a.serialize();
    Sha512 b;
    b.deserialize(blob);
    a.update(input.data() + 1000, input.size() - 1000);
    b.update(input.data() + 1000, input.size() - 1000);
    EXPECT_EQ(a.finish(), b.finish());
}

/**
 * Every length 0..300 (all padding layouts: 0x80 and the length field
 * in one block or spilling into a second, for 64- and 128-byte blocks)
 * hashed one-shot and split into two update() calls at every point.
 * The chunked digests must equal the one-shot one, and an FNV-1a fold
 * of the one-shot digests pins them to the values of the byte-at-a-time
 * padding this codebase used before.
 */
template <typename Hasher>
std::uint64_t
sweepLengths()
{
    std::uint8_t input[300];
    for (std::size_t i = 0; i < sizeof(input); ++i)
        input[i] = static_cast<std::uint8_t>(i * 7 + 3);

    std::uint64_t fold = 0xcbf29ce484222325ULL;
    for (std::size_t len = 0; len <= sizeof(input); ++len) {
        const auto one_shot = Hasher::hash(input, len);
        for (std::uint8_t b : one_shot)
            fold = (fold ^ b) * 0x100000001b3ULL;
        Hasher h;
        for (std::size_t split = 0; split <= len; ++split) {
            h.update(input, split);
            h.update(input + split, len - split);
            EXPECT_EQ(h.finish(), one_shot)
                << "len " << len << " split " << split;
        }
    }
    return fold;
}

TEST(PaddingTest, Md5EveryLengthOneShotAndChunked)
{
    EXPECT_EQ(sweepLengths<Md5>(), 0x8abdf461a76dc5ccULL);
}

TEST(PaddingTest, Sha256EveryLengthOneShotAndChunked)
{
    EXPECT_EQ(sweepLengths<Sha256>(), 0xff53605bf7ec7795ULL);
}

TEST(PaddingTest, Sha512EveryLengthOneShotAndChunked)
{
    EXPECT_EQ(sweepLengths<Sha512>(), 0xa6ad002f65dd2178ULL);
}

} // namespace
