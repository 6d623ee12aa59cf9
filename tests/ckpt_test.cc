// Tests for src/ckpt/: the framed checkpoint format, manifest + retention,
// the model-persistence API, and crash-safe training resume. The
// centerpiece is the kill-and-resume contract: a trainer SIGKILLed
// mid-training and resumed from its checkpoint directory must produce
// bit-identical final parameters and loss curve versus an uninterrupted
// run, at any num_threads (docs/checkpointing.md).

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "common/logging.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "models/registry.h"
#include "models/trainer_util.h"
#include "tensor/tensor.h"

namespace cgkgr {
namespace ckpt {
namespace {

data::Dataset SmallDataset() {
  data::SyntheticConfig config;
  config.name = "ckpt-test";
  config.seed = 505;
  config.num_users = 40;
  config.num_items = 50;
  config.interactions_per_user = 8.0;
  config.num_relations = 4;
  config.num_informative_relations = 3;
  config.triplets_per_item = 4.0;
  config.num_noise_entities = 20;
  config.entities_per_relation_pool = 8;
  config.second_level_pool = 8;
  return data::GenerateSyntheticDataset(config, 2);
}

data::PresetHyperParams SmallHparams() {
  data::PresetHyperParams hparams;
  hparams.embedding_dim = 8;
  hparams.depth = 2;
  hparams.user_sample_size = 4;
  hparams.item_sample_size = 3;
  hparams.kg_sample_size = 3;
  hparams.num_heads = 2;
  return hparams;
}

models::TrainOptions BaseOptions(int64_t num_threads) {
  models::TrainOptions options;
  options.max_epochs = 6;
  options.patience = 6;
  options.batch_size = 48;
  options.seed = 21;
  options.num_threads = num_threads;
  return options;
}

/// The model's full serialized state as raw payload bytes; two models are
/// bit-identical iff these strings are equal.
std::string StatePayload(const models::RecommenderModel& model) {
  Writer writer;
  model.SaveState(&writer);
  return writer.payload();
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/ckpt-" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  ASSERT_TRUE(out.good());
}

std::string ReadFile(const std::string& path) {
  Result<std::string> contents = ReadFileToString(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return contents.ok() ? contents.value() : "";
}

// --- io: framed record stream ------------------------------------------

TEST(CkptIoTest, WriterReaderRoundTripAllRecordTypes) {
  Writer writer;
  writer.BeginSection("everything");
  writer.WriteU64(0xDEADBEEFCAFEF00DULL);
  writer.WriteI64(-42);
  writer.WriteF32(1.5f);
  writer.WriteF64(-2.25);
  writer.WriteBool(true);
  writer.WriteString("hello checkpoint");
  const std::vector<float> floats = {0.0f, -1.0f, 3.5f};
  writer.WriteFloats(floats.data(), 3);
  writer.WriteDoubles({1.0, 2.0});
  writer.WriteI64s({-1, 0, 7});
  tensor::Tensor t({2, 3});
  for (int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i) * 0.5f;
  writer.WriteTensor(t);

  Result<Reader> opened = Reader::FromFramedBytes(writer.FramedBytes());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Reader reader = std::move(opened).value();
  ASSERT_TRUE(reader.ExpectSection("everything").ok());
  uint64_t u = 0;
  ASSERT_TRUE(reader.ReadU64(&u).ok());
  EXPECT_EQ(u, 0xDEADBEEFCAFEF00DULL);
  int64_t i = 0;
  ASSERT_TRUE(reader.ReadI64(&i).ok());
  EXPECT_EQ(i, -42);
  float f = 0.0f;
  ASSERT_TRUE(reader.ReadF32(&f).ok());
  EXPECT_EQ(f, 1.5f);
  double d = 0.0;
  ASSERT_TRUE(reader.ReadF64(&d).ok());
  EXPECT_EQ(d, -2.25);
  bool b = false;
  ASSERT_TRUE(reader.ReadBool(&b).ok());
  EXPECT_TRUE(b);
  std::string s;
  ASSERT_TRUE(reader.ReadString(&s).ok());
  EXPECT_EQ(s, "hello checkpoint");
  std::vector<float> rfloats;
  ASSERT_TRUE(reader.ReadFloats(&rfloats).ok());
  EXPECT_EQ(rfloats, floats);
  std::vector<double> rdoubles;
  ASSERT_TRUE(reader.ReadDoubles(&rdoubles).ok());
  EXPECT_EQ(rdoubles, (std::vector<double>{1.0, 2.0}));
  std::vector<int64_t> ri64s;
  ASSERT_TRUE(reader.ReadI64s(&ri64s).ok());
  EXPECT_EQ(ri64s, (std::vector<int64_t>{-1, 0, 7}));
  tensor::Tensor rt;
  ASSERT_TRUE(reader.ReadTensor(&rt).ok());
  ASSERT_TRUE(rt.SameShape(t));
  for (int64_t j = 0; j < t.size(); ++j) EXPECT_EQ(rt[j], t[j]);
  EXPECT_TRUE(reader.AtEnd());
}

// Empty vectors are legal records (e.g. a model with no loss curve yet);
// reading one back must not hand memcpy a null destination.
TEST(CkptIoTest, EmptyVectorsRoundTrip) {
  Writer writer;
  writer.WriteFloats(nullptr, 0);
  writer.WriteDoubles({});
  writer.WriteI64s({});
  Result<Reader> opened = Reader::FromFramedBytes(writer.FramedBytes());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Reader reader = std::move(opened).value();
  // Never-allocated destinations: data() is null.
  std::vector<float> floats;
  std::vector<double> doubles;
  std::vector<int64_t> i64s;
  ASSERT_TRUE(reader.ReadFloats(&floats).ok());
  ASSERT_TRUE(reader.ReadDoubles(&doubles).ok());
  ASSERT_TRUE(reader.ReadI64s(&i64s).ok());
  EXPECT_TRUE(floats.empty());
  EXPECT_TRUE(doubles.empty());
  EXPECT_TRUE(i64s.empty());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CkptIoTest, CommitPublishesValidatedFile) {
  const std::string dir = FreshDir("commit");
  Writer writer;
  writer.BeginSection("s");
  writer.WriteI64(7);
  const std::string path = dir + "/a.ckpt";
  ASSERT_TRUE(writer.Commit(path).ok());
  Result<Reader> reader = Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // No temp staging file survives a successful publish.
  int64_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1);
}

TEST(CkptIoTest, TypeMismatchSurfacesStatusNotCrash) {
  Writer writer;
  writer.WriteU64(1);
  Result<Reader> opened = Reader::FromFramedBytes(writer.FramedBytes());
  ASSERT_TRUE(opened.ok());
  Reader reader = std::move(opened).value();
  std::string s;
  EXPECT_FALSE(reader.ReadString(&s).ok());
}

// Every corruption mode of a framed file must surface a descriptive
// Status from Open, never a crash or a silently-wrong payload.
TEST(CkptIoTest, OpenRejectsEveryCorruptionMode) {
  const std::string dir = FreshDir("corrupt");
  Writer writer;
  writer.BeginSection("payload");
  writer.WriteString("some state worth protecting");
  writer.WriteI64(1234);
  const std::string path = dir + "/c.ckpt";
  ASSERT_TRUE(writer.Commit(path).ok());
  const std::string good = ReadFile(path);

  // Flipped byte in the middle of the payload: CRC failure.
  std::string flipped = good;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  WriteFile(path, flipped);
  Status status = Reader::Open(path).status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("CRC"), std::string::npos)
      << status.ToString();

  // Truncated footer.
  WriteFile(path, good.substr(0, good.size() - 5));
  EXPECT_FALSE(Reader::Open(path).ok());

  // Truncated below the minimum frame size.
  WriteFile(path, good.substr(0, 10));
  EXPECT_FALSE(Reader::Open(path).ok());

  // Appended garbage after the tail.
  WriteFile(path, good + "junk");
  EXPECT_FALSE(Reader::Open(path).ok());

  // Wrong magic.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  WriteFile(path, bad_magic);
  EXPECT_FALSE(Reader::Open(path).ok());

  // Not a checkpoint at all.
  WriteFile(path, "cgkgr-params-v1\nnot binary\n");
  EXPECT_FALSE(Reader::Open(path).ok());

  // Missing file.
  EXPECT_FALSE(Reader::Open(dir + "/absent.ckpt").ok());

  // The pristine image still validates (the harness itself is sound).
  WriteFile(path, good);
  EXPECT_TRUE(Reader::Open(path).ok());
}

// --- CRC-32 -------------------------------------------------------------

/// The bit-at-a-time CRC-32 (reflected 0xEDB88320), kept as the reference
/// that Crc32's slice-by-8 tables must reproduce.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(256));
  }
  return bytes;
}

TEST(CkptCrcTest, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(CkptCrcTest, SliceBy8MatchesBitwiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = RandomBytes(64 + 8, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(Crc32(bytes.data() + offset, length),
                BitwiseCrc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
  const std::vector<unsigned char> large = RandomBytes((4 << 20) + 5, 18);
  EXPECT_EQ(Crc32(large.data() + 1, large.size() - 1),
            BitwiseCrc32(large.data() + 1, large.size() - 1));
}

TEST(CkptCrcTest, CombineEqualsCrcOfConcatenation) {
  const std::vector<unsigned char> bytes = RandomBytes(300, 19);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{129}, size_t{299}, size_t{300}}) {
    const size_t rest = bytes.size() - split;
    EXPECT_EQ(Crc32Combine(Crc32(bytes.data(), split),
                           Crc32(bytes.data() + split, rest),
                           Crc32CombineOp(rest)),
              whole)
        << "split at " << split;
  }
  EXPECT_EQ(Crc32Combine(0, 0, Crc32CombineOp(0)), 0u);  // both empty

  // One operator folds many equal-length parts, as the snapshot
  // fingerprint folds its score rows.
  constexpr size_t kPart = 148;
  const std::vector<unsigned char> parts = RandomBytes(16 * kPart, 20);
  const uint32_t op = Crc32CombineOp(kPart);
  uint32_t folded = 0;
  for (size_t begin = 0; begin < parts.size(); begin += kPart) {
    folded = Crc32Combine(folded, Crc32(parts.data() + begin, kPart), op);
  }
  EXPECT_EQ(folded, Crc32(parts.data(), parts.size()));
}

// --- manifest + retention ----------------------------------------------

TEST(CkptManifestTest, RoundTripPreservesEntries) {
  const std::string dir = FreshDir("manifest");
  Manifest manifest;
  manifest.entries.push_back({"ckpt-000001.ckpt", 1, 0.5});
  manifest.entries.push_back({"ckpt-000002.ckpt", 2, 0.625});
  ASSERT_TRUE(WriteManifest(dir, manifest).ok());
  Result<Manifest> read = ReadManifest(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().entries.size(), 2u);
  EXPECT_EQ(read.value().entries[0].file, "ckpt-000001.ckpt");
  EXPECT_EQ(read.value().entries[1].epoch, 2);
  // Metrics round-trip exactly (stored as hex floats).
  EXPECT_EQ(read.value().entries[1].metric, 0.625);
}

TEST(CkptManifestTest, MissingManifestIsNotFound) {
  const std::string dir = FreshDir("manifest-missing");
  EXPECT_EQ(ReadManifest(dir).status().code(), StatusCode::kNotFound);
}

TEST(CkptManifestTest, MalformedManifestRejected) {
  const std::string dir = FreshDir("manifest-bad");
  for (const char* contents :
       {"not-a-manifest\n", "cgkgr-manifest-v1\nonly two fields\n",
        "cgkgr-manifest-v1\n../escape 1 0x1p+0\n",
        "cgkgr-manifest-v1\nf.ckpt notanumber 0x1p+0\n"}) {
    WriteFile(dir + "/" + kManifestName, contents);
    EXPECT_FALSE(ReadManifest(dir).ok()) << contents;
  }
}

TEST(CkptManifestTest, RetentionKeepsNewestAndBest) {
  const std::string dir = FreshDir("retention");
  Manifest manifest;
  for (int64_t e = 1; e <= 5; ++e) {
    Writer writer;
    writer.WriteI64(e);
    const std::string file =
        "ckpt-00000" + std::to_string(e) + ".ckpt";
    ASSERT_TRUE(writer.Commit(dir + "/" + file).ok());
    // Epoch 2 carries the best metric; epochs 4 and 5 are the newest two.
    manifest.entries.push_back({file, e, e == 2 ? 0.9 : 0.1});
  }
  ASSERT_TRUE(WriteManifest(dir, manifest).ok());
  RetentionOptions retention;
  retention.keep_last = 2;
  retention.keep_best = true;
  ASSERT_TRUE(ApplyRetention(dir, &manifest, retention).ok());
  ASSERT_EQ(manifest.entries.size(), 3u);
  EXPECT_EQ(manifest.entries[0].file, "ckpt-000002.ckpt");  // best metric
  EXPECT_EQ(manifest.entries[1].file, "ckpt-000004.ckpt");
  EXPECT_EQ(manifest.entries[2].file, "ckpt-000005.ckpt");
  // Dropped files are unlinked, retained ones remain, and the on-disk
  // manifest matches the in-memory one.
  EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt-000001.ckpt"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt-000003.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt-000002.ckpt"));
  Result<Manifest> reread = ReadManifest(dir);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().entries.size(), 3u);
}

TEST(CkptManifestTest, OpenLatestValidSkipsCorruptAndStaleEntries) {
  const std::string dir = FreshDir("latest-valid");
  Manifest manifest;
  for (int64_t e = 1; e <= 2; ++e) {
    Writer writer;
    writer.WriteI64(e);
    const std::string file =
        "ckpt-00000" + std::to_string(e) + ".ckpt";
    ASSERT_TRUE(writer.Commit(dir + "/" + file).ok());
    manifest.entries.push_back({file, e, 0.1});
  }
  // Corrupt the newest file and add a stale row for a file that was never
  // published (the process died between checkpoint and manifest renames).
  std::string newest = ReadFile(dir + "/ckpt-000002.ckpt");
  newest[newest.size() / 2] =
      static_cast<char>(newest[newest.size() / 2] ^ 0x1);
  WriteFile(dir + "/ckpt-000002.ckpt", newest);
  manifest.entries.push_back({"ckpt-000003.ckpt", 3, 0.1});
  ASSERT_TRUE(WriteManifest(dir, manifest).ok());

  LogCapture capture;
  ManifestEntry entry;
  Result<Reader> reader = OpenLatestValid(dir, &entry);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(entry.file, "ckpt-000001.ckpt");
  EXPECT_EQ(entry.epoch, 1);
  Reader winner = std::move(reader).value();
  int64_t value = 0;
  ASSERT_TRUE(winner.ReadI64(&value).ok());
  EXPECT_EQ(value, 1);
  // Both skips were logged, not fatal.
  EXPECT_TRUE(capture.Contains("ckpt-000003.ckpt"));
  EXPECT_TRUE(capture.Contains("ckpt-000002.ckpt"));
}

TEST(CkptManifestTest, OpenLatestValidNotFoundWhenNothingValidates) {
  const std::string dir = FreshDir("latest-none");
  ManifestEntry entry;
  EXPECT_EQ(OpenLatestValid(dir, &entry).status().code(),
            StatusCode::kNotFound);
  Manifest manifest;
  manifest.entries.push_back({"ghost.ckpt", 1, 0.0});
  ASSERT_TRUE(WriteManifest(dir, manifest).ok());
  EXPECT_EQ(OpenLatestValid(dir, &entry).status().code(),
            StatusCode::kNotFound);
}

// --- model persistence API ---------------------------------------------

TEST(ModelStateTest, SaveLoadModelStateRoundTripsEveryModel) {
  // Crc32 of each model's SaveState payload after the Fit below, pinned so
  // a change to the shared model plumbing cannot move a checkpoint byte.
  const std::map<std::string, uint32_t> kPayloadCrcs = {
      {"BPRMF", 1145881308u},    {"NFM", 1405787713u},
      {"CKE", 372192195u},       {"RippleNet", 1904644359u},
      {"KGNN-LS", 1773751498u},  {"KGCN", 3642203126u},
      {"KGAT", 2191970701u},     {"CKAN", 286255513u},
      {"CG-KGR", 2221809950u}};
  const data::Dataset d = SmallDataset();
  const data::PresetHyperParams hparams = SmallHparams();
  const std::string dir = FreshDir("model-state");
  for (const auto& name : models::AllModelNames()) {
    models::TrainOptions options = BaseOptions(1);
    options.max_epochs = 2;
    auto trained = models::CreateModel(name, hparams);
    ASSERT_TRUE(trained->Fit(d, options).ok()) << name;
    const std::string path = dir + "/" + name + ".ckpt";
    ASSERT_TRUE(models::SaveModelState(*trained, path).ok()) << name;
    const std::string payload = StatePayload(*trained);
    EXPECT_EQ(Crc32(payload.data(), payload.size()), kPayloadCrcs.at(name))
        << name;

    // A second instance, prepared with the same seed (models like
    // RippleNet and CG-KGR bake seed-derived sampling structures into
    // Prepare) but never trained, restores to the trained one.
    auto restored = models::CreateModel(name, hparams);
    ASSERT_TRUE(restored->Prepare(d, options.seed).ok()) << name;
    ASSERT_TRUE(models::LoadModelState(restored.get(), path).ok()) << name;
    EXPECT_EQ(StatePayload(*restored), payload) << name;

    std::vector<float> want;
    std::vector<float> got;
    trained->ScorePairs({0, 1, 2, 3}, {5, 6, 7, 8}, &want);
    restored->ScorePairs({0, 1, 2, 3}, {5, 6, 7, 8}, &got);
    EXPECT_EQ(want, got) << name;
  }
}

TEST(ModelStateTest, LoadRejectsWrongModelsAndCorruption) {
  const data::Dataset d = SmallDataset();
  const data::PresetHyperParams hparams = SmallHparams();
  models::TrainOptions options = BaseOptions(1);
  options.max_epochs = 1;
  const std::string dir = FreshDir("model-state-neg");

  auto bprmf = models::CreateModel("BPRMF", hparams);
  ASSERT_TRUE(bprmf->Fit(d, options).ok());
  const std::string path = dir + "/bprmf.ckpt";
  ASSERT_TRUE(models::SaveModelState(*bprmf, path).ok());

  // Wrong model: the section name embeds the model identity.
  auto nfm = models::CreateModel("NFM", hparams);
  ASSERT_TRUE(nfm->Prepare(d, options.seed).ok());
  EXPECT_FALSE(models::LoadModelState(nfm.get(), path).ok());

  // Untrained model: LoadState requires a prepared store.
  auto fresh = models::CreateModel("BPRMF", hparams);
  EXPECT_FALSE(models::LoadModelState(fresh.get(), path).ok());

  // Byte-flipped file: rejected at Open (CRC), state untouched.
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x8);
  WriteFile(path, bytes);
  const std::string before = StatePayload(*bprmf);
  EXPECT_FALSE(models::LoadModelState(bprmf.get(), path).ok());
  EXPECT_EQ(StatePayload(*bprmf), before);
}

// --- training checkpoints + exact resume -------------------------------

/// Trains `model_name` uninterrupted and returns (final state payload,
/// loss curve) for comparison against checkpointed/resumed runs.
struct ReferenceRun {
  std::string payload;
  std::vector<double> losses;
  int64_t best_epoch = 0;
};

ReferenceRun RunReference(const std::string& model_name, int64_t threads) {
  const data::Dataset d = SmallDataset();
  auto model = models::CreateModel(model_name, SmallHparams());
  const Status status = model->Fit(d, BaseOptions(threads));
  EXPECT_TRUE(status.ok()) << status.ToString();
  return {StatePayload(*model), model->train_stats().epoch_losses,
          model->train_stats().best_epoch};
}

TEST(CkptResumeTest, InProcessStopAndResumeIsBitIdentical) {
  // Stop cleanly mid-run via the epoch callback, then resume from the
  // published checkpoint: the composite run must be bit-identical to an
  // uninterrupted one. KGAT is included deliberately — its warm-up epoch
  // is staged on the true epoch number, which a resume must not replay.
  const data::Dataset d = SmallDataset();
  for (const std::string name : {"BPRMF", "KGAT", "CG-KGR"}) {
    for (const int64_t threads : {1, 4}) {
      const ReferenceRun reference = RunReference(name, threads);
      const std::string dir =
          FreshDir("resume-" + name + "-" + std::to_string(threads));

      auto first = models::CreateModel(name, SmallHparams());
      models::TrainOptions options = BaseOptions(threads);
      options.checkpoint.directory = dir;
      options.epoch_callback = [](const models::EpochEvent& event) {
        return event.epoch < 3;  // stop cleanly after epoch 3
      };
      ASSERT_TRUE(first->Fit(d, options).ok()) << name;
      ASSERT_EQ(first->train_stats().epochs_run, 3) << name;

      auto resumed = models::CreateModel(name, SmallHparams());
      models::TrainOptions resume_options = BaseOptions(threads);
      resume_options.checkpoint.directory = dir;
      resume_options.checkpoint.resume = true;
      ASSERT_TRUE(resumed->Fit(d, resume_options).ok()) << name;

      EXPECT_EQ(resumed->train_stats().resumed_epochs, 3) << name;
      EXPECT_EQ(resumed->train_stats().epoch_losses, reference.losses)
          << name << " threads=" << threads;
      EXPECT_EQ(resumed->train_stats().best_epoch, reference.best_epoch);
      EXPECT_EQ(StatePayload(*resumed), reference.payload)
          << name << " threads=" << threads;
    }
  }
}

TEST(CkptResumeTest, ResumeSkipsCorruptNewestCheckpoint) {
  // Flip a byte in the newest checkpoint: resume must fall back to the
  // previous epoch's checkpoint, replay the missing epoch, and still land
  // bit-identical — corruption costs work, never correctness.
  const data::Dataset d = SmallDataset();
  const ReferenceRun reference = RunReference("BPRMF", 1);
  const std::string dir = FreshDir("resume-corrupt");

  auto first = models::CreateModel("BPRMF", SmallHparams());
  models::TrainOptions options = BaseOptions(1);
  options.checkpoint.directory = dir;
  options.epoch_callback = [](const models::EpochEvent& event) {
    return event.epoch < 3;
  };
  ASSERT_TRUE(first->Fit(d, options).ok());

  const std::string newest = dir + "/ckpt-000003.ckpt";
  std::string bytes = ReadFile(newest);
  bytes[bytes.size() / 3] =
      static_cast<char>(bytes[bytes.size() / 3] ^ 0x20);
  WriteFile(newest, bytes);

  auto resumed = models::CreateModel("BPRMF", SmallHparams());
  models::TrainOptions resume_options = BaseOptions(1);
  resume_options.checkpoint.directory = dir;
  resume_options.checkpoint.resume = true;
  ASSERT_TRUE(resumed->Fit(d, resume_options).ok());
  EXPECT_EQ(resumed->train_stats().resumed_epochs, 2);
  EXPECT_EQ(resumed->train_stats().epoch_losses, reference.losses);
  EXPECT_EQ(StatePayload(*resumed), reference.payload);
}

TEST(CkptResumeTest, ResumeRejectsCheckpointOfDifferentModel) {
  const data::Dataset d = SmallDataset();
  const std::string dir = FreshDir("resume-wrong-model");
  auto bprmf = models::CreateModel("BPRMF", SmallHparams());
  models::TrainOptions options = BaseOptions(1);
  options.max_epochs = 2;
  options.checkpoint.directory = dir;
  ASSERT_TRUE(bprmf->Fit(d, options).ok());

  auto nfm = models::CreateModel("NFM", SmallHparams());
  models::TrainOptions resume_options = BaseOptions(1);
  resume_options.checkpoint.directory = dir;
  resume_options.checkpoint.resume = true;
  const Status status = nfm->Fit(d, resume_options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("BPRMF"), std::string::npos);
}

TEST(CkptResumeTest, ResumeAtMaxEpochsRunsNothingAndRestoresBest) {
  const data::Dataset d = SmallDataset();
  const ReferenceRun reference = RunReference("BPRMF", 1);
  const std::string dir = FreshDir("resume-complete");
  auto first = models::CreateModel("BPRMF", SmallHparams());
  models::TrainOptions options = BaseOptions(1);
  options.checkpoint.directory = dir;
  ASSERT_TRUE(first->Fit(d, options).ok());

  auto resumed = models::CreateModel("BPRMF", SmallHparams());
  models::TrainOptions resume_options = BaseOptions(1);
  resume_options.checkpoint.directory = dir;
  resume_options.checkpoint.resume = true;
  ASSERT_TRUE(resumed->Fit(d, resume_options).ok());
  EXPECT_EQ(resumed->train_stats().resumed_epochs,
            resumed->train_stats().epochs_run);
  EXPECT_EQ(resumed->train_stats().epoch_losses, reference.losses);
  EXPECT_EQ(StatePayload(*resumed), reference.payload);
}

TEST(CkptResumeTest, RetentionBoundsCheckpointDirectory) {
  const data::Dataset d = SmallDataset();
  const std::string dir = FreshDir("retention-loop");
  auto model = models::CreateModel("BPRMF", SmallHparams());
  models::TrainOptions options = BaseOptions(1);
  options.checkpoint.directory = dir;
  options.checkpoint.keep_last = 2;
  ASSERT_TRUE(model->Fit(d, options).ok());
  Result<Manifest> manifest = ReadManifest(dir);
  ASSERT_TRUE(manifest.ok());
  // keep_last newest plus at most one best-metric entry.
  EXPECT_LE(manifest.value().entries.size(), 3u);
  for (const auto& entry : manifest.value().entries) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + entry.file));
  }
}

TEST(CkptResumeTest, CkptDirEnvVarSuppliesDefault) {
  const data::Dataset d = SmallDataset();
  const std::string dir = FreshDir("env-dir");
  ASSERT_EQ(setenv("CGKGR_CKPT_DIR", dir.c_str(), 1), 0);
  auto model = models::CreateModel("BPRMF", SmallHparams());
  models::TrainOptions options = BaseOptions(1);
  options.max_epochs = 2;
  const Status status = model->Fit(d, options);
  ASSERT_EQ(unsetenv("CGKGR_CKPT_DIR"), 0);
  ASSERT_TRUE(status.ok());
  Result<Manifest> manifest = ReadManifest(dir);
  ASSERT_TRUE(manifest.ok()) << "env-var checkpointing did not engage";
  EXPECT_FALSE(manifest.value().entries.empty());
}

TEST(CkptResumeTest, ShutdownSignalStopsAfterCheckpoint) {
  const data::Dataset d = SmallDataset();
  const std::string dir = FreshDir("shutdown");
  ClearShutdownRequest();
  auto model = models::CreateModel("BPRMF", SmallHparams());
  models::TrainOptions options = BaseOptions(1);
  options.checkpoint.directory = dir;
  options.epoch_callback = [](const models::EpochEvent& event) {
    // Simulates SIGTERM arriving while epoch 2 trains; the loop notices at
    // the epoch-3 boundary, checkpoints, and stops.
    if (event.epoch == 2) RequestShutdown();
    return true;
  };
  ASSERT_TRUE(model->Fit(d, options).ok());
  ClearShutdownRequest();
  EXPECT_TRUE(model->train_stats().interrupted);
  EXPECT_EQ(model->train_stats().epochs_run, 3);
  EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt-000003.ckpt"));
}

// --- kill-and-resume: the crash-safety contract ------------------------

/// Child-process half of the SIGKILL test: trains with checkpointing into
/// CGKGR_CKPT_TEST_DIR, slowed so the parent can kill it mid-training.
/// Skipped in a normal test run; the parent execs this binary with a
/// filter on exactly this test.
TEST(CkptKillResumeChild, TrainUntilKilled) {
  const char* dir = std::getenv("CGKGR_CKPT_TEST_DIR");
  const char* model_name = std::getenv("CGKGR_CKPT_TEST_MODEL");
  const char* threads = std::getenv("CGKGR_CKPT_TEST_THREADS");
  if (dir == nullptr || model_name == nullptr || threads == nullptr) {
    GTEST_SKIP() << "parent-driven child process; skipped standalone";
  }
  const data::Dataset d = SmallDataset();
  auto model = models::CreateModel(model_name, SmallHparams());
  models::TrainOptions options = BaseOptions(std::atoll(threads));
  options.checkpoint.directory = dir;
  options.epoch_callback = [](const models::EpochEvent&) {
    // Stretch the run so the parent's SIGKILL lands at an arbitrary point
    // mid-training rather than after completion.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return true;
  };
  const Status status = model->Fit(d, options);
  // Reached only if the parent failed to kill us; exit loudly either way.
  std::fprintf(stderr, "child survived: %s\n", status.ToString().c_str());
  std::_Exit(42);
}

void RunKillResume(const std::string& model_name, int64_t threads) {
  SCOPED_TRACE(model_name + " threads=" + std::to_string(threads));
  const ReferenceRun reference = RunReference(model_name, threads);
  const std::string dir =
      FreshDir("kill-" + model_name + "-" + std::to_string(threads));

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("CGKGR_CKPT_TEST_DIR", dir.c_str(), 1);
    setenv("CGKGR_CKPT_TEST_MODEL", model_name.c_str(), 1);
    setenv("CGKGR_CKPT_TEST_THREADS", std::to_string(threads).c_str(), 1);
    execl("/proc/self/exe", "ckpt_test_child",
          "--gtest_filter=CkptKillResumeChild.TrainUntilKilled",
          static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  // Wait until at least two checkpoints are published, then SIGKILL the
  // child wherever it happens to be (sleeping, training epoch 3+, or
  // mid-publish of a later checkpoint).
  bool saw_progress = false;
  for (int i = 0; i < 600; ++i) {
    Result<Manifest> manifest = ReadManifest(dir);
    if (manifest.ok() && manifest.value().entries.size() >= 2) {
      saw_progress = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    int wait_status = 0;
    ASSERT_EQ(waitpid(pid, &wait_status, WNOHANG), 0)
        << "child exited prematurely";
  }
  kill(pid, SIGKILL);
  int wait_status = 0;
  ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(saw_progress) << "child never published two checkpoints";
  ASSERT_TRUE(WIFSIGNALED(wait_status));

  // Resume from whatever the dead trainer left behind. The directory may
  // hold a half-written temp file or a checkpoint newer than the manifest;
  // none of that may affect the result.
  const data::Dataset d = SmallDataset();
  auto resumed = models::CreateModel(model_name, SmallHparams());
  models::TrainOptions options = BaseOptions(threads);
  options.checkpoint.directory = dir;
  options.checkpoint.resume = true;
  ASSERT_TRUE(resumed->Fit(d, options).ok());
  EXPECT_GE(resumed->train_stats().resumed_epochs, 2);
  EXPECT_EQ(resumed->train_stats().epoch_losses, reference.losses);
  EXPECT_EQ(resumed->train_stats().best_epoch, reference.best_epoch);
  EXPECT_EQ(StatePayload(*resumed), reference.payload);
}

TEST(CkptKillResumeTest, BprmfSingleThread) { RunKillResume("BPRMF", 1); }
TEST(CkptKillResumeTest, BprmfFourThreads) { RunKillResume("BPRMF", 4); }
TEST(CkptKillResumeTest, KgcnSingleThread) { RunKillResume("KGCN", 1); }
TEST(CkptKillResumeTest, KgcnFourThreads) { RunKillResume("KGCN", 4); }
TEST(CkptKillResumeTest, CgkgrSingleThread) { RunKillResume("CG-KGR", 1); }
TEST(CkptKillResumeTest, CgkgrFourThreads) { RunKillResume("CG-KGR", 4); }

}  // namespace
}  // namespace ckpt
}  // namespace cgkgr
