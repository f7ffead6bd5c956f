#include "src/support/md5.h"

#include <algorithm>
#include <cstring>

namespace dvm {
namespace {

inline uint32_t RotL(uint32_t x, int c) { return (x << c) | (x >> (32 - c)); }

// The four round functions of RFC 1321 section 3.4, and one step: `m` is
// the step's message word, `k` its sine constant, `s` its shift.
#define DVM_MD5_F(x, y, z) (((x) & (y)) | (~(x) & (z)))
#define DVM_MD5_G(x, y, z) (((x) & (z)) | ((y) & ~(z)))
#define DVM_MD5_H(x, y, z) ((x) ^ (y) ^ (z))
#define DVM_MD5_I(x, y, z) ((y) ^ ((x) | ~(z)))
#define DVM_MD5_STEP(f, a, b, c, d, m, k, s) (a) = (b) + RotL((a) + f((b), (c), (d)) + (m) + (k), (s))

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

Md5::Md5() : a_(0x67452301), b_(0xefcdab89), c_(0x98badcfe), d_(0x10325476) {}

// The 64 steps written out: each names its round function, message word,
// constant K[i] = floor(2^32 * abs(sin(i + 1))) and shift, so no step
// branches on its round or indexes a table.
void Md5::ProcessBlock(const uint8_t block[64]) {
  uint32_t m[16];
  for (int i = 0; i < 16; i++) {
    m[i] = LoadLe32(block + 4 * i);
  }
  uint32_t a = a_, b = b_, c = c_, d = d_;

  DVM_MD5_STEP(DVM_MD5_F, a, b, c, d, m[0], 0xd76aa478, 7);
  DVM_MD5_STEP(DVM_MD5_F, d, a, b, c, m[1], 0xe8c7b756, 12);
  DVM_MD5_STEP(DVM_MD5_F, c, d, a, b, m[2], 0x242070db, 17);
  DVM_MD5_STEP(DVM_MD5_F, b, c, d, a, m[3], 0xc1bdceee, 22);
  DVM_MD5_STEP(DVM_MD5_F, a, b, c, d, m[4], 0xf57c0faf, 7);
  DVM_MD5_STEP(DVM_MD5_F, d, a, b, c, m[5], 0x4787c62a, 12);
  DVM_MD5_STEP(DVM_MD5_F, c, d, a, b, m[6], 0xa8304613, 17);
  DVM_MD5_STEP(DVM_MD5_F, b, c, d, a, m[7], 0xfd469501, 22);
  DVM_MD5_STEP(DVM_MD5_F, a, b, c, d, m[8], 0x698098d8, 7);
  DVM_MD5_STEP(DVM_MD5_F, d, a, b, c, m[9], 0x8b44f7af, 12);
  DVM_MD5_STEP(DVM_MD5_F, c, d, a, b, m[10], 0xffff5bb1, 17);
  DVM_MD5_STEP(DVM_MD5_F, b, c, d, a, m[11], 0x895cd7be, 22);
  DVM_MD5_STEP(DVM_MD5_F, a, b, c, d, m[12], 0x6b901122, 7);
  DVM_MD5_STEP(DVM_MD5_F, d, a, b, c, m[13], 0xfd987193, 12);
  DVM_MD5_STEP(DVM_MD5_F, c, d, a, b, m[14], 0xa679438e, 17);
  DVM_MD5_STEP(DVM_MD5_F, b, c, d, a, m[15], 0x49b40821, 22);

  DVM_MD5_STEP(DVM_MD5_G, a, b, c, d, m[1], 0xf61e2562, 5);
  DVM_MD5_STEP(DVM_MD5_G, d, a, b, c, m[6], 0xc040b340, 9);
  DVM_MD5_STEP(DVM_MD5_G, c, d, a, b, m[11], 0x265e5a51, 14);
  DVM_MD5_STEP(DVM_MD5_G, b, c, d, a, m[0], 0xe9b6c7aa, 20);
  DVM_MD5_STEP(DVM_MD5_G, a, b, c, d, m[5], 0xd62f105d, 5);
  DVM_MD5_STEP(DVM_MD5_G, d, a, b, c, m[10], 0x02441453, 9);
  DVM_MD5_STEP(DVM_MD5_G, c, d, a, b, m[15], 0xd8a1e681, 14);
  DVM_MD5_STEP(DVM_MD5_G, b, c, d, a, m[4], 0xe7d3fbc8, 20);
  DVM_MD5_STEP(DVM_MD5_G, a, b, c, d, m[9], 0x21e1cde6, 5);
  DVM_MD5_STEP(DVM_MD5_G, d, a, b, c, m[14], 0xc33707d6, 9);
  DVM_MD5_STEP(DVM_MD5_G, c, d, a, b, m[3], 0xf4d50d87, 14);
  DVM_MD5_STEP(DVM_MD5_G, b, c, d, a, m[8], 0x455a14ed, 20);
  DVM_MD5_STEP(DVM_MD5_G, a, b, c, d, m[13], 0xa9e3e905, 5);
  DVM_MD5_STEP(DVM_MD5_G, d, a, b, c, m[2], 0xfcefa3f8, 9);
  DVM_MD5_STEP(DVM_MD5_G, c, d, a, b, m[7], 0x676f02d9, 14);
  DVM_MD5_STEP(DVM_MD5_G, b, c, d, a, m[12], 0x8d2a4c8a, 20);

  DVM_MD5_STEP(DVM_MD5_H, a, b, c, d, m[5], 0xfffa3942, 4);
  DVM_MD5_STEP(DVM_MD5_H, d, a, b, c, m[8], 0x8771f681, 11);
  DVM_MD5_STEP(DVM_MD5_H, c, d, a, b, m[11], 0x6d9d6122, 16);
  DVM_MD5_STEP(DVM_MD5_H, b, c, d, a, m[14], 0xfde5380c, 23);
  DVM_MD5_STEP(DVM_MD5_H, a, b, c, d, m[1], 0xa4beea44, 4);
  DVM_MD5_STEP(DVM_MD5_H, d, a, b, c, m[4], 0x4bdecfa9, 11);
  DVM_MD5_STEP(DVM_MD5_H, c, d, a, b, m[7], 0xf6bb4b60, 16);
  DVM_MD5_STEP(DVM_MD5_H, b, c, d, a, m[10], 0xbebfbc70, 23);
  DVM_MD5_STEP(DVM_MD5_H, a, b, c, d, m[13], 0x289b7ec6, 4);
  DVM_MD5_STEP(DVM_MD5_H, d, a, b, c, m[0], 0xeaa127fa, 11);
  DVM_MD5_STEP(DVM_MD5_H, c, d, a, b, m[3], 0xd4ef3085, 16);
  DVM_MD5_STEP(DVM_MD5_H, b, c, d, a, m[6], 0x04881d05, 23);
  DVM_MD5_STEP(DVM_MD5_H, a, b, c, d, m[9], 0xd9d4d039, 4);
  DVM_MD5_STEP(DVM_MD5_H, d, a, b, c, m[12], 0xe6db99e5, 11);
  DVM_MD5_STEP(DVM_MD5_H, c, d, a, b, m[15], 0x1fa27cf8, 16);
  DVM_MD5_STEP(DVM_MD5_H, b, c, d, a, m[2], 0xc4ac5665, 23);

  DVM_MD5_STEP(DVM_MD5_I, a, b, c, d, m[0], 0xf4292244, 6);
  DVM_MD5_STEP(DVM_MD5_I, d, a, b, c, m[7], 0x432aff97, 10);
  DVM_MD5_STEP(DVM_MD5_I, c, d, a, b, m[14], 0xab9423a7, 15);
  DVM_MD5_STEP(DVM_MD5_I, b, c, d, a, m[5], 0xfc93a039, 21);
  DVM_MD5_STEP(DVM_MD5_I, a, b, c, d, m[12], 0x655b59c3, 6);
  DVM_MD5_STEP(DVM_MD5_I, d, a, b, c, m[3], 0x8f0ccc92, 10);
  DVM_MD5_STEP(DVM_MD5_I, c, d, a, b, m[10], 0xffeff47d, 15);
  DVM_MD5_STEP(DVM_MD5_I, b, c, d, a, m[1], 0x85845dd1, 21);
  DVM_MD5_STEP(DVM_MD5_I, a, b, c, d, m[8], 0x6fa87e4f, 6);
  DVM_MD5_STEP(DVM_MD5_I, d, a, b, c, m[15], 0xfe2ce6e0, 10);
  DVM_MD5_STEP(DVM_MD5_I, c, d, a, b, m[6], 0xa3014314, 15);
  DVM_MD5_STEP(DVM_MD5_I, b, c, d, a, m[13], 0x4e0811a1, 21);
  DVM_MD5_STEP(DVM_MD5_I, a, b, c, d, m[4], 0xf7537e82, 6);
  DVM_MD5_STEP(DVM_MD5_I, d, a, b, c, m[11], 0xbd3af235, 10);
  DVM_MD5_STEP(DVM_MD5_I, c, d, a, b, m[2], 0x2ad7d2bb, 15);
  DVM_MD5_STEP(DVM_MD5_I, b, c, d, a, m[9], 0xeb86d391, 21);

  a_ += a;
  b_ += b;
  c_ += c;
  d_ += d;
}

#undef DVM_MD5_STEP
#undef DVM_MD5_I
#undef DVM_MD5_H
#undef DVM_MD5_G
#undef DVM_MD5_F

void Md5::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  if (len == 0) {
    return;
  }
  // Top up a partly filled buffer first; whole blocks after it are hashed
  // where the caller holds them, and only the tail is copied.
  if (buffer_len_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) {
      return;
    }
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  for (; len >= sizeof(buffer_); data += sizeof(buffer_), len -= sizeof(buffer_)) {
    ProcessBlock(data);
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Md5Digest Md5::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  // Update leaves a partial block, so the 0x80 marker always fits; the
  // 8-byte length goes into this block or, past byte 56, the next one.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; i++) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  ProcessBlock(buffer_);

  Md5Digest out;
  uint32_t words[4] = {a_, b_, c_, d_};
  for (int w = 0; w < 4; w++) {
    for (int i = 0; i < 4; i++) {
      out[w * 4 + i] = static_cast<uint8_t>(words[w] >> (8 * i));
    }
  }
  return out;
}

Md5Digest Md5::Hash(const Bytes& data) {
  Md5 md5;
  md5.Update(data);
  return md5.Finish();
}

std::string Md5::ToHex(const Md5Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

}  // namespace dvm
