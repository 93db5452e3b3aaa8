/**
 * @file
 * Tests for the LeNet-5 forward pass: shape checks, softmax
 * invariants, determinism, input sensitivity, and goldens that pin
 * the exact output bytes of inference and of training.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "apps/lenet.hh"
#include "workload/datagen.hh"

using lynx::apps::LeNet;
using lynx::workload::synthMnist;

TEST(LeNet, SoftmaxIsAProbabilityDistribution)
{
    LeNet net;
    auto img = synthMnist(3, 0);
    auto probs = net.forward(img);
    float sum = 0;
    for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        EXPECT_LE(p, 1.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(LeNet, DeterministicForSameSeedAndInput)
{
    LeNet a(42), b(42);
    auto img = synthMnist(7, 5);
    auto pa = a.forward(img);
    auto pb = b.forward(img);
    for (int i = 0; i < LeNet::numClasses; ++i)
        EXPECT_FLOAT_EQ(pa[i], pb[i]);
}

TEST(LeNet, DifferentSeedsGiveDifferentNetworks)
{
    LeNet a(1), b(2);
    auto img = synthMnist(0, 0);
    auto pa = a.forward(img);
    auto pb = b.forward(img);
    bool anyDiff = false;
    for (int i = 0; i < LeNet::numClasses; ++i)
        anyDiff |= std::abs(pa[i] - pb[i]) > 1e-6f;
    EXPECT_TRUE(anyDiff);
}

TEST(LeNet, ClassifyReturnsArgmaxInRange)
{
    LeNet net;
    for (int d = 0; d < 10; ++d) {
        auto img = synthMnist(d, 1);
        int cls = net.classify(img);
        EXPECT_GE(cls, 0);
        EXPECT_LT(cls, 10);
        auto probs = net.forward(img);
        for (float p : probs)
            EXPECT_LE(p, probs[static_cast<std::size_t>(cls)] + 1e-7f);
    }
}

TEST(LeNet, OutputDependsOnInput)
{
    LeNet net;
    std::set<int> classes;
    bool outputsDiffer = false;
    auto ref = net.forward(synthMnist(0, 0));
    for (int d = 0; d < 10; ++d) {
        auto p = net.forward(synthMnist(d, 0));
        classes.insert(net.classify(synthMnist(d, 0)));
        for (int i = 0; i < 10; ++i)
            outputsDiffer |= std::abs(p[i] - ref[i]) > 1e-6f;
    }
    EXPECT_TRUE(outputsDiffer);
    // An untrained (random-weight) net still separates some inputs.
    EXPECT_GE(classes.size(), 2u);
}

TEST(LeNet, BlankAndFullImagesProduceFiniteOutputs)
{
    LeNet net;
    std::vector<std::uint8_t> blank(LeNet::imageBytes, 0);
    std::vector<std::uint8_t> full(LeNet::imageBytes, 255);
    for (auto &img : {blank, full}) {
        auto p = net.forward(img);
        for (float v : p)
            EXPECT_TRUE(std::isfinite(v));
    }
}

namespace {

/** FNV-1a over @p n raw bytes, continuing from @p h. */
std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Digits 0-9 x synthMnist variants 0-2, then a blank and a full image. */
std::vector<std::vector<std::uint8_t>>
goldenImages()
{
    std::vector<std::vector<std::uint8_t>> imgs;
    for (int d = 0; d < 10; ++d)
        for (std::uint64_t v = 0; v < 3; ++v)
            imgs.push_back(synthMnist(d, v));
    imgs.emplace_back(LeNet::imageBytes, 0);
    imgs.emplace_back(LeNet::imageBytes, 255);
    return imgs;
}

} // namespace

// The exact probability bytes forward() returns, one FNV-1a hash per
// image, recorded from the original one-output-at-a-time kernels. Any
// change to the float accumulation order (or to tanh/exp) moves them.
TEST(LeNetGolden, ForwardOutputBytesAreUnchanged)
{
    struct SeedGolden
    {
        std::uint64_t seed;
        std::uint64_t hashes[32];
    };
    const SeedGolden goldens[] = {
        {0x1e4e7,
         {
             0x6733d0fdebf21b07, 0xfed007739beb2da9, 0x54d4a03c2f23817a,
             0x3d5ceafcb2fe5ba4, 0xf0c73168940204cb, 0x31cd0671cdb41fdc,
             0xfb7a6badd375a170, 0x6a3a1b5aab7ae157, 0xf49cc2097ce4f09a,
             0xeab9386d25803523, 0x6721d124ccc073d9, 0x3860de01b76d9d06,
             0x56ee962cba3fe3fc, 0xf980a9667616e60b, 0x6647a5372131a3e3,
             0x4d97fe2f73429c81, 0xecc1282a54a7b196, 0xe6705a0512b70423,
             0xc4736b16ecf075ec, 0x325f1cd2851fbd77, 0x195492e2d85c1e62,
             0x4041abfb916df496, 0xfd0a7f826792b8d3, 0x15470e444ef3007f,
             0x5391486263e9668f, 0xc3e55c15a90ce0a3, 0xc65e4da7cd05b7a5,
             0xe90be65cd782b837, 0xc18aad06a550588f, 0xca96b4fb9068a975,
             0x642a86c95a9f4208, 0xfe7290cfff8057fb,
         }},
        {42,
         {
             0x8dd181d65fbd915c, 0xdf7a160b5385552e, 0x6670be8c5859b10c,
             0x7599dc4cce412fe7, 0x0b41fb9a090bfc0b, 0xb59fcfbd1e259197,
             0xa4efc06f9df77383, 0x38183d3355dc807e, 0x4d552326187014ad,
             0xd4a2e014ab9da774, 0x2fb1b6c03a93a41d, 0x334ba8a6027eb8b2,
             0x7af749f2d2ad251f, 0x97a039284882ddff, 0x55d1c6874700443f,
             0xc51a745a1eafa6b5, 0x8832e8d37da4aa10, 0xc84e4ed5cfc7e29e,
             0x6cc27b5989fef473, 0x65f5b5c82634abf2, 0x746b556e630fee1f,
             0x42de1b2ac0d0fe69, 0xd677639fbab28bd9, 0xa934ff741c9caf23,
             0x338c464f6266d633, 0xe6ddf29f455652de, 0xf33650c5578fae45,
             0x07a1c69c6c9c27d6, 0x74ac50a500f4b176, 0xf2a272d6b21e1b2a,
             0x5680f0215a9b93af, 0x2aa74a4c87dee5d1,
         }},
    };
    auto imgs = goldenImages();
    ASSERT_EQ(imgs.size(), 32u);
    for (const SeedGolden &g : goldens) {
        LeNet net(g.seed);
        for (std::size_t i = 0; i < imgs.size(); ++i) {
            auto probs = net.forward(imgs[i]);
            const std::uint64_t h = fnv1a(probs.data(), sizeof probs);
            char hex[24];
            std::snprintf(hex, sizeof hex, "0x%016llx",
                          static_cast<unsigned long long>(h));
            EXPECT_EQ(h, g.hashes[i])
                << "seed " << g.seed << " image " << i << " got " << hex;
        }
    }
}

TEST(LeNetDeath, WrongImageSizePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LeNet net;
    std::vector<std::uint8_t> tiny(10, 0);
    EXPECT_DEATH(net.forward(tiny), "28x28");
}

#include "apps/lenet_train.hh"

using lynx::apps::LenetExample;
using lynx::apps::LeNetTrainer;
using lynx::apps::synthTrainingSet;

TEST(LeNetTrain, SyntheticSetHasAllDigits)
{
    auto set = synthTrainingSet(5, 0);
    ASSERT_EQ(set.size(), 50u);
    int counts[10] = {};
    for (const auto &ex : set) {
        ASSERT_GE(ex.label, 0);
        ASSERT_LT(ex.label, 10);
        ASSERT_EQ(ex.image.size(), 784u);
        ++counts[ex.label];
    }
    for (int d = 0; d < 10; ++d)
        EXPECT_EQ(counts[d], 5);
}

TEST(LeNetTrain, SingleStepReducesBatchLoss)
{
    auto data = synthTrainingSet(2, 0);
    LeNetTrainer t(3);
    double l0 = t.step(data, 0.05f);
    // Re-evaluating the same batch: loss must have dropped.
    double l1 = t.step(data, 0.05f);
    EXPECT_LT(l1, l0);
}

TEST(LeNetTrain, GradientMatchesFiniteDifference)
{
    // Spot-check backprop against a numerical derivative of the
    // loss w.r.t. one fc3 weight and one conv1 weight.
    auto data = synthTrainingSet(1, 0);
    std::vector<LenetExample> one{data[3]};

    auto lossAt = [&](const lynx::apps::LeNetParams &p) {
        LeNetTrainer probe(p);
        // A zero-lr step returns the batch loss without changing p.
        return probe.step(one, 0.0f);
    };

    lynx::apps::LeNetParams base =
        lynx::apps::LeNetParams::random(11);
    const float eps = 5e-3f;
    for (auto which : {0, 1}) {
        // Analytic gradient recovered from one SGD step: after a step
        // with learning rate lr, w' = w - lr * g => g = (w - w') / lr.
        // lr must be large enough that the float update survives
        // rounding against |w| ~ 0.1.
        LeNetTrainer t(base);
        const float lr = 2e-3f;
        t.step(one, lr);
        float before = which == 0 ? base.fc3W[5] : base.conv1W[7];
        float after =
            which == 0 ? t.params().fc3W[5] : t.params().conv1W[7];
        double analytic = (before - after) / lr;

        lynx::apps::LeNetParams plus = base, minus = base;
        (which == 0 ? plus.fc3W[5] : plus.conv1W[7]) += eps;
        (which == 0 ? minus.fc3W[5] : minus.conv1W[7]) -= eps;
        double numeric = (lossAt(plus) - lossAt(minus)) / (2.0 * eps);
        EXPECT_NEAR(analytic, numeric,
                    std::max(0.1 * std::abs(numeric), 2e-2))
            << "param set " << which;
    }
}

TEST(LeNetTrain, ReachesHighHeldOutAccuracy)
{
    auto train = synthTrainingSet(30, 0);
    auto test = synthTrainingSet(8, 100); // unseen variants
    LeNetTrainer t(7);
    double before = t.accuracy(test);
    t.train(train, 3, 16, 0.08f, 1);
    double after = t.accuracy(test);
    EXPECT_LT(before, 0.4);
    EXPECT_GT(after, 0.9);
}

TEST(LeNetTrain, TrainedParamsLoadIntoInferenceNet)
{
    auto train = synthTrainingSet(20, 0);
    LeNetTrainer t(7);
    t.train(train, 2, 16, 0.08f, 1);
    lynx::apps::LeNet net(t.params());
    auto img = lynx::workload::synthMnist(4, 55);
    EXPECT_EQ(net.classify(img), 4);
}

// The trained parameters after a fixed run of SGD steps, hashed
// bit-exactly: the forward-with-caches pass and backprop feed every
// update, so a changed float in either moves the hash.
TEST(LeNetTrain, TrainedParamsAreBitExact)
{
    auto data = synthTrainingSet(2, 0);
    LeNetTrainer t(7);
    t.train(data, 2, 5, 0.05f, 1); // 2 epochs x 4 steps
    const lynx::apps::LeNetParams &p = t.params();
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::vector<float> *v :
         {&p.conv1W, &p.conv1B, &p.conv2W, &p.conv2B, &p.fc1W, &p.fc1B,
          &p.fc2W, &p.fc2B, &p.fc3W, &p.fc3B})
        h = fnv1a(v->data(), v->size() * sizeof(float), h);
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(h));
    EXPECT_EQ(h, 0xc2d42a952d377f38ull) << "got " << hex;
}
