// Byte buffers and big-endian wire readers/writers used by the network
// protocol encoders (Ethernet/IPv4/UDP/DHCP) and by the security module's
// instruction streams.
#ifndef SRC_BASE_BYTES_H_
#define SRC_BASE_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace kite {

using Buffer = std::vector<uint8_t>;

// Appends big-endian (network order) fields to a Buffer.
class ByteWriter {
 public:
  explicit ByteWriter(Buffer* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) {
    out_->push_back(static_cast<uint8_t>(v >> 8));
    out_->push_back(static_cast<uint8_t>(v));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v >> 16));
    U16(static_cast<uint16_t>(v));
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v >> 32));
    U32(static_cast<uint32_t>(v));
  }
  void Raw(std::span<const uint8_t> bytes) { out_->insert(out_->end(), bytes.begin(), bytes.end()); }
  void Zeros(size_t n) { out_->insert(out_->end(), n, 0); }

  size_t size() const { return out_->size(); }

 private:
  Buffer* out_;
};

// Reads big-endian fields from a byte span. Reports truncation via ok().
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t U8() {
    if (!Need(1)) {
      return 0;
    }
    return data_[pos_++];
  }
  uint16_t U16() {
    if (!Need(2)) {
      return 0;
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  uint32_t U32() {
    uint32_t hi = U16();
    uint32_t lo = U16();
    return hi << 16 | lo;
  }
  uint64_t U64() {
    uint64_t hi = U32();
    uint64_t lo = U32();
    return hi << 32 | lo;
  }
  bool Raw(std::span<uint8_t> out) {
    if (!Need(out.size())) {
      return false;
    }
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
    return true;
  }
  void Skip(size_t n) { Need(n) ? pos_ += n : pos_; }

  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  size_t pos() const { return pos_; }
  bool ok() const { return ok_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Internet checksum (RFC 1071) over a byte span; used by the IPv4 header and
// the UDP/TCP/ICMP codecs. `initial` is a sum of big-endian 16-bit words (a
// pseudo header).
//
// The one's-complement sum does not depend on byte order (RFC 1071 §2(B)):
// the data is summed as native-order 32-bit words into a 64-bit accumulator,
// folded to 16 bits and byte-swapped once into network order.
inline uint16_t InternetChecksum(std::span<const uint8_t> data, uint32_t initial = 0) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t sum = 0;
  for (; n >= 4; p += 4, n -= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    sum += word;
  }
  if (n != 0) {
    // The last 1-3 bytes, zero-padded at the end as RFC 1071 pads an odd byte.
    uint32_t tail = 0;
    std::memcpy(&tail, p, n);
    sum += tail;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  if constexpr (std::endian::native == std::endian::little) {
    sum = (sum >> 8) | ((sum & 0xff) << 8);
  }
  sum += initial;
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

// FNV-1a over a byte span; used for content fingerprints in data-integrity
// tests (end-to-end payload verification through rings and grant copies).
inline uint64_t Fnv1a(std::span<const uint8_t> data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace kite

#endif  // SRC_BASE_BYTES_H_
