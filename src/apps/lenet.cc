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

namespace lenet_detail {

void
conv2d(const std::vector<float> &in, int inCh, int inDim,
       const std::vector<float> &w, const std::vector<float> &b,
       int outCh, int k, int pad, std::vector<float> &out)
{
    const int outDim = inDim + 2 * pad - k + 1;
    out.assign(static_cast<std::size_t>(outCh) * outDim * outDim, 0.0f);
    for (int oc = 0; oc < outCh; ++oc) {
        for (int oy = 0; oy < outDim; ++oy) {
            for (int ox = 0; ox < outDim; ++ox) {
                float acc = b[static_cast<std::size_t>(oc)];
                for (int ic = 0; ic < inCh; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy + ky - pad;
                        if (iy < 0 || iy >= inDim)
                            continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox + kx - pad;
                            if (ix < 0 || ix >= inDim)
                                continue;
                            acc += in[static_cast<std::size_t>(
                                       (ic * inDim + iy) * inDim + ix)] *
                                   w[static_cast<std::size_t>(
                                       ((oc * inCh + ic) * k + ky) * k +
                                       kx)];
                        }
                    }
                }
                // tanh activation, as in the classic LeNet.
                out[static_cast<std::size_t>(
                    (oc * outDim + oy) * outDim + ox)] = std::tanh(acc);
            }
        }
    }
}

void
avgPool2(const std::vector<float> &in, int ch, int dim,
         std::vector<float> &out)
{
    const int outDim = dim / 2;
    out.assign(static_cast<std::size_t>(ch) * outDim * outDim, 0.0f);
    for (int c = 0; c < ch; ++c) {
        for (int y = 0; y < outDim; ++y) {
            for (int x = 0; x < outDim; ++x) {
                float s =
                    in[static_cast<std::size_t>(
                        (c * dim + 2 * y) * dim + 2 * x)] +
                    in[static_cast<std::size_t>(
                        (c * dim + 2 * y) * dim + 2 * x + 1)] +
                    in[static_cast<std::size_t>(
                        (c * dim + 2 * y + 1) * dim + 2 * x)] +
                    in[static_cast<std::size_t>(
                        (c * dim + 2 * y + 1) * dim + 2 * x + 1)];
                out[static_cast<std::size_t>(
                    (c * outDim + y) * outDim + x)] = s * 0.25f;
            }
        }
    }
}

void
dense(const std::vector<float> &in, const std::vector<float> &w,
      const std::vector<float> &b, int outN, bool activate,
      std::vector<float> &out)
{
    const std::size_t inN = in.size();
    out.assign(static_cast<std::size_t>(outN), 0.0f);
    for (int o = 0; o < outN; ++o) {
        float acc = b[static_cast<std::size_t>(o)];
        for (std::size_t i = 0; i < inN; ++i)
            acc += in[i] * w[static_cast<std::size_t>(o) * inN + i];
        out[static_cast<std::size_t>(o)] =
            activate ? std::tanh(acc) : acc;
    }
}

void
normalize(std::span<const std::uint8_t> image, std::vector<float> &x)
{
    x.resize(image.size());
    for (std::size_t i = 0; i < image.size(); ++i)
        x[i] = static_cast<float>(image[i]) / 255.0f - 0.5f;
}

// Batched layer variants: activations are [B][ch*dim*dim] contiguous
// and the batch loop is innermost, so each weight element is read
// once and applied to all B images. The per-image accumulation order
// (bias, then ic -> ky -> kx, or ascending i) matches the scalar
// functions above exactly, which keeps float results bit-identical.

void
conv2dBatch(const std::vector<float> &in, int batch, int inCh,
            int inDim, const std::vector<float> &w,
            const std::vector<float> &b, int outCh, int k, int pad,
            std::vector<float> &out, std::vector<float> &acc)
{
    const int outDim = inDim + 2 * pad - k + 1;
    const std::size_t inSz = static_cast<std::size_t>(inCh) * inDim *
                             inDim;
    const std::size_t outSz = static_cast<std::size_t>(outCh) * outDim *
                              outDim;
    out.assign(static_cast<std::size_t>(batch) * outSz, 0.0f);
    acc.resize(static_cast<std::size_t>(batch));
    for (int oc = 0; oc < outCh; ++oc) {
        for (int oy = 0; oy < outDim; ++oy) {
            for (int ox = 0; ox < outDim; ++ox) {
                std::fill(acc.begin(), acc.end(),
                          b[static_cast<std::size_t>(oc)]);
                for (int ic = 0; ic < inCh; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy + ky - pad;
                        if (iy < 0 || iy >= inDim)
                            continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox + kx - pad;
                            if (ix < 0 || ix >= inDim)
                                continue;
                            const float wv = w[static_cast<std::size_t>(
                                ((oc * inCh + ic) * k + ky) * k + kx)];
                            const std::size_t at =
                                static_cast<std::size_t>(
                                    (ic * inDim + iy) * inDim + ix);
                            for (int bi = 0; bi < batch; ++bi)
                                acc[static_cast<std::size_t>(bi)] +=
                                    in[static_cast<std::size_t>(bi) *
                                           inSz +
                                       at] *
                                    wv;
                        }
                    }
                }
                const std::size_t at = static_cast<std::size_t>(
                    (oc * outDim + oy) * outDim + ox);
                for (int bi = 0; bi < batch; ++bi)
                    out[static_cast<std::size_t>(bi) * outSz + at] =
                        std::tanh(acc[static_cast<std::size_t>(bi)]);
            }
        }
    }
}

void
avgPool2Batch(const std::vector<float> &in, int batch, int ch, int dim,
              std::vector<float> &out)
{
    const int outDim = dim / 2;
    const std::size_t inSz = static_cast<std::size_t>(ch) * dim * dim;
    const std::size_t outSz = static_cast<std::size_t>(ch) * outDim *
                              outDim;
    out.assign(static_cast<std::size_t>(batch) * outSz, 0.0f);
    for (int c = 0; c < ch; ++c) {
        for (int y = 0; y < outDim; ++y) {
            for (int x = 0; x < outDim; ++x) {
                for (int bi = 0; bi < batch; ++bi) {
                    const float *img =
                        in.data() + static_cast<std::size_t>(bi) * inSz;
                    float s = img[static_cast<std::size_t>(
                                  (c * dim + 2 * y) * dim + 2 * x)] +
                              img[static_cast<std::size_t>(
                                  (c * dim + 2 * y) * dim + 2 * x + 1)] +
                              img[static_cast<std::size_t>(
                                  (c * dim + 2 * y + 1) * dim + 2 * x)] +
                              img[static_cast<std::size_t>(
                                  (c * dim + 2 * y + 1) * dim + 2 * x +
                                  1)];
                    out[static_cast<std::size_t>(bi) * outSz +
                        static_cast<std::size_t>(
                            (c * outDim + y) * outDim + x)] = s * 0.25f;
                }
            }
        }
    }
}

void
denseBatch(const std::vector<float> &in, int batch, std::size_t inN,
           const std::vector<float> &w, const std::vector<float> &b,
           int outN, bool activate, std::vector<float> &out,
           std::vector<float> &acc)
{
    out.assign(static_cast<std::size_t>(batch) * outN, 0.0f);
    acc.resize(static_cast<std::size_t>(batch));
    for (int o = 0; o < outN; ++o) {
        std::fill(acc.begin(), acc.end(),
                  b[static_cast<std::size_t>(o)]);
        for (std::size_t i = 0; i < inN; ++i) {
            const float wv = w[static_cast<std::size_t>(o) * inN + i];
            for (int bi = 0; bi < batch; ++bi)
                acc[static_cast<std::size_t>(bi)] +=
                    in[static_cast<std::size_t>(bi) * inN + i] * wv;
        }
        for (int bi = 0; bi < batch; ++bi)
            out[static_cast<std::size_t>(bi) * outN +
                static_cast<std::size_t>(o)] =
                activate ? std::tanh(acc[static_cast<std::size_t>(bi)])
                         : acc[static_cast<std::size_t>(bi)];
    }
}

} // namespace lenet_detail

std::array<float, LeNet::numClasses>
LeNet::forward(std::span<const std::uint8_t> image) const
{
    using namespace lenet_detail;
    LYNX_ASSERT(image.size() == imageBytes,
                "LeNet expects a 28x28 grayscale image, got ",
                image.size(), " bytes");
    std::vector<float> x;
    normalize(image, x);

    const LeNetParams &p = params_;
    std::vector<float> c1, p1, c2, p2, f1, f2, logits;
    conv2d(x, 1, 28, p.conv1W, p.conv1B, 6, 5, 2, c1);   // 6x28x28
    avgPool2(c1, 6, 28, p1);                             // 6x14x14
    conv2d(p1, 6, 14, p.conv2W, p.conv2B, 16, 5, 0, c2); // 16x10x10
    avgPool2(c2, 16, 10, p2);                            // 16x5x5
    dense(p2, p.fc1W, p.fc1B, 120, true, f1);
    dense(f1, p.fc2W, p.fc2B, 84, true, f2);
    dense(f2, p.fc3W, p.fc3B, 10, false, logits);

    // Softmax.
    float mx = *std::max_element(logits.begin(), logits.end());
    std::array<float, numClasses> probs{};
    float sum = 0.0f;
    for (int i = 0; i < numClasses; ++i) {
        probs[static_cast<std::size_t>(i)] =
            std::exp(logits[static_cast<std::size_t>(i)] - mx);
        sum += probs[static_cast<std::size_t>(i)];
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
    using namespace lenet_detail;
    // Below minKernelBatch images the batch loop is too short to pay
    // for itself and a loop of the scalar pass (the same numbers) is
    // cheaper on the host.
    if (images.size() < minKernelBatch) {
        std::vector<std::array<float, numClasses>> out;
        out.reserve(images.size());
        for (std::span<const std::uint8_t> img : images)
            out.push_back(forward(img));
        return out;
    }
    const int batch = static_cast<int>(images.size());
    std::vector<float> x(static_cast<std::size_t>(batch) * imageBytes);
    for (int bi = 0; bi < batch; ++bi) {
        const auto &img = images[static_cast<std::size_t>(bi)];
        LYNX_ASSERT(img.size() == imageBytes,
                    "LeNet expects a 28x28 grayscale image, got ",
                    img.size(), " bytes");
        for (std::size_t i = 0; i < img.size(); ++i)
            x[static_cast<std::size_t>(bi) * imageBytes + i] =
                static_cast<float>(img[i]) / 255.0f - 0.5f;
    }

    const LeNetParams &p = params_;
    std::vector<float> c1, p1, c2, p2, f1, f2, logits, acc;
    conv2dBatch(x, batch, 1, 28, p.conv1W, p.conv1B, 6, 5, 2, c1, acc);
    avgPool2Batch(c1, batch, 6, 28, p1);
    conv2dBatch(p1, batch, 6, 14, p.conv2W, p.conv2B, 16, 5, 0, c2,
                acc);
    avgPool2Batch(c2, batch, 16, 10, p2);
    denseBatch(p2, batch, 400, p.fc1W, p.fc1B, 120, true, f1, acc);
    denseBatch(f1, batch, 120, p.fc2W, p.fc2B, 84, true, f2, acc);
    denseBatch(f2, batch, 84, p.fc3W, p.fc3B, 10, false, logits, acc);

    std::vector<std::array<float, numClasses>> out(
        static_cast<std::size_t>(batch));
    for (int bi = 0; bi < batch; ++bi) {
        const float *lg =
            logits.data() + static_cast<std::size_t>(bi) * numClasses;
        float mx = *std::max_element(lg, lg + numClasses);
        std::array<float, numClasses> &probs =
            out[static_cast<std::size_t>(bi)];
        float sum = 0.0f;
        for (int i = 0; i < numClasses; ++i) {
            probs[static_cast<std::size_t>(i)] =
                std::exp(lg[i] - mx);
            sum += probs[static_cast<std::size_t>(i)];
        }
        for (auto &pr : probs)
            pr /= sum;
    }
    return out;
}

std::vector<int>
LeNet::classifyBatch(
    std::span<const std::span<const std::uint8_t>> images) const
{
    auto probs = forwardBatch(images);
    std::vector<int> digits(probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
        digits[i] = static_cast<int>(
            std::max_element(probs[i].begin(), probs[i].end()) -
            probs[i].begin());
    return digits;
}

} // namespace lynx::apps
