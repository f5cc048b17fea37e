// Checkpoint integrity: the v2 ("ETW2"/"ETD2") format detects truncation
// and bit flips per named section, rejects implausible header fields, and
// rejects the retired unchecksummed v1 streams by magic. Every corruption
// test asserts the error message names the bad section — a corrupted
// checkpoint must point at *what* is bad, not just fail. See
// docs/robustness.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "nn/serialize.hpp"
#include "serving/registry.hpp"
#include "tensor/compare.hpp"

namespace {

using et::tensor::MatrixF;

et::nn::ModelConfig tiny_model() {
  et::nn::ModelConfig model;
  model.num_layers = 2;
  model.d_model = 32;
  model.num_heads = 2;
  model.d_ff = 64;
  return model;
}

std::vector<et::nn::EncoderWeights> tiny_stack(std::uint64_t seed) {
  return {et::nn::make_dense_encoder_weights(tiny_model(), seed),
          et::nn::make_dense_encoder_weights(tiny_model(), seed + 1)};
}

std::string serialize(const std::vector<et::nn::EncoderWeights>& layers) {
  std::stringstream ss;
  et::nn::save_encoder_stack(ss, layers);
  return ss.str();
}

/// Byte offset of the section *header* (the u32 name-length field) for
/// `name`. The name bytes could in principle also occur inside a float
/// payload, so require the preceding u32 to equal the name length.
std::size_t section_header_pos(const std::string& blob,
                               const std::string& name) {
  std::size_t pos = blob.find(name);
  while (pos != std::string::npos) {
    if (pos >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, blob.data() + pos - 4, 4);
      if (len == name.size()) return pos - 4;
    }
    pos = blob.find(name, pos + 1);
  }
  ADD_FAILURE() << "section '" << name << "' not found in stream";
  return 0;  // keep later indexing in-bounds; the failure is already flagged
}

/// First payload byte: header is u32 name_len + name + u64 size + u32 crc.
std::size_t section_payload_pos(const std::string& blob,
                                const std::string& name) {
  return section_header_pos(blob, name) + 4 + name.size() + 8 + 4;
}

template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the load to throw";
  return {};
}

bool weights_equal(const et::nn::EncoderWeights& a,
                   const et::nn::EncoderWeights& b) {
  using et::sparse::to_dense;
  return allclose(to_dense(a.attn.wq), to_dense(b.attn.wq), 0.0, 0.0) &&
         allclose(to_dense(a.attn.wo), to_dense(b.attn.wo), 0.0, 0.0) &&
         allclose(to_dense(a.w_ff1), to_dense(b.w_ff1), 0.0, 0.0) &&
         allclose(to_dense(a.w_ff2), to_dense(b.w_ff2), 0.0, 0.0) &&
         a.b_ff1 == b.b_ff1 && a.b_ff2 == b.b_ff2 &&
         a.ln1_gamma == b.ln1_gamma && a.ln1_beta == b.ln1_beta &&
         a.ln2_gamma == b.ln2_gamma && a.ln2_beta == b.ln2_beta;
}

// ------------------------------------------------------- happy paths ----

TEST(CheckpointIntegrity, V2StackRoundTripsAndLeadsWithMagic) {
  const auto layers = tiny_stack(100);
  const std::string blob = serialize(layers);
  ASSERT_GE(blob.size(), 4u);
  EXPECT_EQ(blob.substr(0, 4), "ETW2");

  std::stringstream ss(blob);
  const auto loaded = et::nn::load_encoder_stack(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(weights_equal(loaded[0], layers[0]));
  EXPECT_TRUE(weights_equal(loaded[1], layers[1]));
}

TEST(CheckpointIntegrity, SingleLayerSectionsRoundTrip) {
  const auto w = et::nn::make_dense_encoder_weights(tiny_model(), 101);
  std::stringstream ss;
  et::nn::save_encoder_weights(ss, w);
  EXPECT_TRUE(weights_equal(et::nn::load_encoder_weights(ss), w));
}

// -------------------------------------------------------- truncation ----

TEST(CheckpointIntegrity, TruncationNamesTheSectionItHit) {
  const std::string blob = serialize(tiny_stack(102));
  // Cut inside layer1's attention payload: earlier sections load clean,
  // then the reader must fail *on that section by name*.
  const std::size_t cut = section_payload_pos(blob, "layer1/attention") + 10;
  ASSERT_LT(cut, blob.size());
  std::stringstream ss(blob.substr(0, cut));
  const std::string msg =
      error_of([&] { (void)et::nn::load_encoder_stack(ss); });
  EXPECT_NE(msg.find("layer1/attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, TruncationInsideHeaderNamesTheSection) {
  const std::string blob = serialize(tiny_stack(103));
  // Cut mid-header (inside the section name bytes) of layer0/ffn.
  const std::size_t cut = section_header_pos(blob, "layer0/ffn") + 6;
  std::stringstream ss(blob.substr(0, cut));
  const std::string msg =
      error_of([&] { (void)et::nn::load_encoder_stack(ss); });
  EXPECT_NE(msg.find("layer0/ffn"), std::string::npos) << msg;
}

// --------------------------------------------------------- bit flips ----

TEST(CheckpointIntegrity, FlippedPayloadByteNamesEachSectionType) {
  const std::string blob = serialize(tiny_stack(104));
  for (const std::string section :
       {"layer0/attention", "layer0/ffn", "layer0/layernorm",
        "layer1/layernorm"}) {
    std::string bad = blob;
    bad[section_payload_pos(bad, section)] ^= 0x40;
    std::stringstream ss(bad);
    const std::string msg =
        error_of([&] { (void)et::nn::load_encoder_stack(ss); });
    EXPECT_NE(msg.find(section), std::string::npos) << msg;
    EXPECT_NE(msg.find("CRC32"), std::string::npos) << msg;
  }
}

TEST(CheckpointIntegrity, FlippedHeaderByteIsCorruptedHeaderNotGarbageLoad) {
  const std::string blob = serialize(tiny_stack(105));
  std::string bad = blob;
  bad[section_header_pos(bad, "layer0/ffn")] ^= 0x10;  // name-length field
  std::stringstream ss(bad);
  const std::string msg =
      error_of([&] { (void)et::nn::load_encoder_stack(ss); });
  EXPECT_NE(msg.find("layer0/ffn"), std::string::npos) << msg;
  EXPECT_NE(msg.find("corrupted header"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, FlippedSizeFieldNeverBecomesHugeAllocation) {
  const std::string blob = serialize(tiny_stack(106));
  std::string bad = blob;
  // Flip the top byte of the u64 payload-size field: a naive reader would
  // try to allocate ~2^56 bytes.
  const std::size_t size_field =
      section_header_pos(bad, "layer0/attention") + 4 +
      std::string("layer0/attention").size();
  bad[size_field + 7] ^= 0x01;
  std::stringstream ss(bad);
  const std::string msg =
      error_of([&] { (void)et::nn::load_encoder_stack(ss); });
  EXPECT_NE(msg.find("layer0/attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("implausible section size"), std::string::npos) << msg;
}

// ------------------------------------------------------ layer counts ----

TEST(CheckpointIntegrity, OffByOneLayerCountNamesTheMissingSection) {
  std::string blob = serialize({et::nn::make_dense_encoder_weights(
      tiny_model(), 107)});
  // Layer count is the u64 after magic + version. 1 -> 2: the reader asks
  // for layer1's sections past the end of the stream.
  ASSERT_EQ(blob[8], 1);
  blob[8] = 2;
  std::stringstream ss(blob);
  const std::string msg =
      error_of([&] { (void)et::nn::load_encoder_stack(ss); });
  EXPECT_NE(msg.find("layer1/attention"), std::string::npos) << msg;
}

TEST(CheckpointIntegrity, ImplausibleLayerCountRejectedBeforeAllocating) {
  std::string blob = serialize({et::nn::make_dense_encoder_weights(
      tiny_model(), 108)});
  for (std::size_t i = 8; i < 16; ++i) blob[i] = static_cast<char>(0xff);
  std::stringstream ss(blob);
  const std::string msg =
      error_of([&] { (void)et::nn::load_encoder_stack(ss); });
  EXPECT_NE(msg.find("implausible layer count"), std::string::npos) << msg;
}

// ---------------------------------------------------- legacy formats ----

/// A hand-built v1 stream header: 4-byte magic, u32 version 1, u64 layer
/// count 1 — what an ETW1/ETD1 writer put first.
std::string v1_header(const char* magic) {
  std::string blob(magic, 4);
  const std::uint32_t version = 1;
  const std::uint64_t count = 1;
  blob.append(reinterpret_cast<const char*>(&version), sizeof version);
  blob.append(reinterpret_cast<const char*>(&count), sizeof count);
  return blob;
}

TEST(CheckpointIntegrity, LegacyV1MagicIsRejectedNamingEtw2) {
  // Checkpoints are untrusted input: an unchecksummed v1 stream must be
  // refused by magic, before any payload is read, by both loaders and by
  // the serving registry — with an error that names the format to use.
  std::stringstream etw1(v1_header("ETW1"));
  const std::string enc =
      error_of([&] { (void)et::nn::load_encoder_stack(etw1); });
  EXPECT_NE(enc.find("ETW1"), std::string::npos) << enc;
  EXPECT_NE(enc.find("ETW2"), std::string::npos) << enc;

  std::stringstream etd1(v1_header("ETD1"));
  const std::string dec =
      error_of([&] { (void)et::nn::load_decoder_stack(etd1); });
  EXPECT_NE(dec.find("ETD1"), std::string::npos) << dec;
  EXPECT_NE(dec.find("ETW2"), std::string::npos) << dec;

  const std::string path = ::testing::TempDir() + "checkpoint_v1.etw";
  {
    std::ofstream os(path, std::ios::binary);
    os << v1_header("ETW1");
  }
  et::serving::ModelRegistry registry;
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, tiny_model(), 8,
                                 /*causal=*/true);
  const std::string reg =
      error_of([&] { registry.load_file("legacy", 1, path, opt, 8); });
  EXPECT_NE(reg.find("ETW2"), std::string::npos) << reg;
  EXPECT_EQ(registry.models_loaded(), 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ decoder ----

TEST(CheckpointIntegrity, DecoderV2RoundTripAndCorruptionNaming) {
  const auto model = tiny_model();
  std::vector<et::nn::DecoderWeights> layers = {
      et::nn::make_dense_decoder_weights(model, 111),
      et::nn::make_dense_decoder_weights(model, 112)};
  std::stringstream ss;
  et::nn::save_decoder_stack(ss, layers);
  const std::string blob = ss.str();
  EXPECT_EQ(blob.substr(0, 4), "ETD2");

  const auto loaded = et::nn::load_decoder_stack(ss);
  ASSERT_EQ(loaded.size(), 2u);
  using et::sparse::to_dense;
  EXPECT_TRUE(allclose(to_dense(loaded[1].cross_attn.wk),
                       to_dense(layers[1].cross_attn.wk), 0.0, 0.0));
  EXPECT_EQ(loaded[0].ln3_gamma, layers[0].ln3_gamma);

  std::string bad = blob;
  bad[section_payload_pos(bad, "layer0/cross_attention")] ^= 0x20;
  std::stringstream corrupted(bad);
  const std::string msg =
      error_of([&] { (void)et::nn::load_decoder_stack(corrupted); });
  EXPECT_NE(msg.find("layer0/cross_attention"), std::string::npos) << msg;
  EXPECT_NE(msg.find("CRC32"), std::string::npos) << msg;
}

}  // namespace
