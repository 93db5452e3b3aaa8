#include "lenet.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace lynx::apps {

namespace {

/** Fill @p w with small deterministic pseudo-random weights. */
void
initWeights(std::vector<float> &w, std::size_t n, sim::Rng &rng,
            double scale)
{
    w.resize(n);
    for (auto &x : w)
        x = static_cast<float>((rng.uniform() * 2.0 - 1.0) * scale);
}

} // namespace

LeNetParams
LeNetParams::random(std::uint64_t seed)
{
    LeNetParams p;
    sim::Rng rng(seed);
    initWeights(p.conv1W, 6 * 1 * 5 * 5, rng, 0.35);
    initWeights(p.conv1B, 6, rng, 0.1);
    initWeights(p.conv2W, 16 * 6 * 5 * 5, rng, 0.2);
    initWeights(p.conv2B, 16, rng, 0.1);
    initWeights(p.fc1W, 120 * 400, rng, 0.08);
    initWeights(p.fc1B, 120, rng, 0.05);
    initWeights(p.fc2W, 84 * 120, rng, 0.1);
    initWeights(p.fc2B, 84, rng, 0.05);
    initWeights(p.fc3W, 10 * 84, rng, 0.15);
    initWeights(p.fc3B, 10, rng, 0.05);
    return p;
}

namespace {

// The layer kernels. Each keeps many independent outputs in its
// innermost loops, so the compiler gives every output its own vector
// lane, while each output still adds its terms in textbook order:
// bias first, then ic -> ky -> kx (conv) or ascending i (dense). With
// no FMA contraction and no -ffast-math a lane rounds exactly like
// scalar code, so the results are bit-identical to computing one
// output at a time.

/**
 * Stride-1 K x K convolution with zero padding @p Pad, then tanh.
 * Each output channel's whole plane accumulates at once: per kernel
 * tap (ic, ky, kx) the loops run over the output rows and columns
 * that tap reaches inside the image, so padding adds no term and no
 * bounds check runs per term. A single output row (10 columns in
 * conv2) is too few outputs to hide the adds' latency.
 */
template <int InCh, int InDim, int OutCh, int K, int Pad>
void
convTanh(const float *in, const float *w, const float *b, float *out)
{
    constexpr int outDim = InDim + 2 * Pad - K + 1;
    for (int oc = 0; oc < OutCh; ++oc) {
        float acc[outDim * outDim];
        std::fill(acc, acc + outDim * outDim, b[oc]);
        for (int ic = 0; ic < InCh; ++ic) {
            for (int ky = 0; ky < K; ++ky) {
                const int ylo = std::max(0, Pad - ky);
                const int yhi = std::min(outDim, InDim + Pad - ky);
                for (int kx = 0; kx < K; ++kx) {
                    const int xlo = std::max(0, Pad - kx);
                    const int xhi = std::min(outDim, InDim + Pad - kx);
                    const float wv = w[((oc * InCh + ic) * K + ky) * K + kx];
                    for (int oy = ylo; oy < yhi; ++oy) {
                        const float *row =
                            in + (ic * InDim + oy + ky - Pad) * InDim;
                        float *a = acc + oy * outDim;
                        for (int ox = xlo; ox < xhi; ++ox)
                            a[ox] += row[ox + kx - Pad] * wv;
                    }
                }
            }
        }
        float *o = out + oc * outDim * outDim;
        for (int i = 0; i < outDim * outDim; ++i)
            o[i] = std::tanh(acc[i]);
    }
}

/** 2 x 2 average pooling with stride 2. */
template <int Ch, int Dim>
void
avgPool2(const float *in, float *out)
{
    constexpr int outDim = Dim / 2;
    for (int c = 0; c < Ch; ++c) {
        for (int y = 0; y < outDim; ++y) {
            const float *r0 = in + (c * Dim + 2 * y) * Dim;
            const float *r1 = r0 + Dim;
            float *o = out + (c * outDim + y) * outDim;
            for (int x = 0; x < outDim; ++x)
                o[x] = (r0[2 * x] + r0[2 * x + 1] + r1[2 * x] +
                        r1[2 * x + 1]) *
                       0.25f;
        }
    }
}

/** Fully connected layer over weights @p wT laid out [in][out]. */
template <int InN, int OutN, bool Activate>
void
dense(const float *in, const float *wT, const float *b, float *out)
{
    float acc[OutN];
    std::copy(b, b + OutN, acc);
    for (int i = 0; i < InN; ++i) {
        const float x = in[i];
        const float *wi = wT + i * OutN;
        for (int o = 0; o < OutN; ++o)
            acc[o] += x * wi[o];
    }
    for (int o = 0; o < OutN; ++o)
        out[o] = Activate ? std::tanh(acc[o]) : acc[o];
}

/** @return @p w, laid out [outN][inN], transposed to [inN][outN]. */
std::vector<float>
transposed(const std::vector<float> &w, std::size_t outN, std::size_t inN)
{
    LYNX_ASSERT(w.size() == outN * inN, "LeNet weight matrix has ",
                w.size(), " entries, expected ", outN * inN);
    std::vector<float> t(w.size());
    for (std::size_t o = 0; o < outN; ++o)
        for (std::size_t i = 0; i < inN; ++i)
            t[i * outN + o] = w[o * inN + i];
    return t;
}

} // namespace

LeNet::LeNet(LeNetParams params)
    : params_(std::move(params)), fc1T_(transposed(params_.fc1W, 120, 400)),
      fc2T_(transposed(params_.fc2W, 84, 120)),
      fc3T_(transposed(params_.fc3W, 10, 84))
{
    const LeNetParams &p = params_;
    LYNX_ASSERT(p.conv1W.size() == 6 * 5 * 5 && p.conv1B.size() == 6 &&
                    p.conv2W.size() == 16 * 6 * 5 * 5 &&
                    p.conv2B.size() == 16 && p.fc1B.size() == 120 &&
                    p.fc2B.size() == 84 && p.fc3B.size() == 10,
                "LeNetParams do not have LeNet-5's shapes");
}

std::array<float, LeNet::numClasses>
LeNet::forward(std::span<const std::uint8_t> image) const
{
    Activations acts;
    return forward(image, acts);
}

std::array<float, LeNet::numClasses>
LeNet::forward(std::span<const std::uint8_t> image, Activations &a) const
{
    LYNX_ASSERT(image.size() == imageBytes,
                "LeNet expects a 28x28 grayscale image, got ",
                image.size(), " bytes");
    for (std::size_t i = 0; i < a.x.size(); ++i)
        a.x[i] = static_cast<float>(image[i]) / 255.0f - 0.5f;

    const LeNetParams &p = params_;
    convTanh<1, 28, 6, 5, 2>(a.x.data(), p.conv1W.data(), p.conv1B.data(),
                             a.c1.data());
    avgPool2<6, 28>(a.c1.data(), a.p1.data());
    convTanh<6, 14, 16, 5, 0>(a.p1.data(), p.conv2W.data(),
                              p.conv2B.data(), a.c2.data());
    avgPool2<16, 10>(a.c2.data(), a.p2.data());
    dense<400, 120, true>(a.p2.data(), fc1T_.data(), p.fc1B.data(),
                          a.f1.data());
    dense<120, 84, true>(a.f1.data(), fc2T_.data(), p.fc2B.data(),
                         a.f2.data());
    dense<84, 10, false>(a.f2.data(), fc3T_.data(), p.fc3B.data(),
                         a.logits.data());

    // Softmax.
    float mx = *std::max_element(a.logits.begin(), a.logits.end());
    std::array<float, numClasses> probs{};
    float sum = 0.0f;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        probs[i] = std::exp(a.logits[i] - mx);
        sum += probs[i];
    }
    for (auto &pr : probs)
        pr /= sum;
    return probs;
}

int
LeNet::classify(std::span<const std::uint8_t> image) const
{
    auto probs = forward(image);
    return static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
}

std::vector<std::array<float, LeNet::numClasses>>
LeNet::forwardBatch(
    std::span<const std::span<const std::uint8_t>> images) const
{
    std::vector<std::array<float, numClasses>> out;
    out.reserve(images.size());
    for (std::span<const std::uint8_t> img : images)
        out.push_back(forward(img));
    return out;
}

std::vector<int>
LeNet::classifyBatch(
    std::span<const std::span<const std::uint8_t>> images) const
{
    std::vector<int> digits;
    digits.reserve(images.size());
    for (std::span<const std::uint8_t> img : images)
        digits.push_back(classify(img));
    return digits;
}

} // namespace lynx::apps
