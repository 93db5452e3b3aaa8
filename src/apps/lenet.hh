/**
 * @file
 * LeNet-5 convolutional network inference (LeCun et al. 1998), the
 * model the paper's §6.3 inference service runs: "A client sends
 * 28×28 grayscale images from the standard MNIST dataset, and the
 * server returns the recognized digit".
 *
 * This is a complete from-scratch forward pass (conv → pool → conv →
 * pool → three fully-connected layers → softmax) computing real
 * floating-point results, so the inference service's responses are
 * checkable end-to-end. Weights come either from a seed (untrained —
 * sufficient for all timing experiments, which don't depend on
 * weight values) or from LeNetTrainer (lenet_train.hh), which trains
 * the network on the synthetic digit set so the served
 * classifications are genuinely correct.
 *
 * The layer structure matches what the paper's TVM-compiled version
 * launches as separate GPU kernels; the persistent-kernel service in
 * the benchmarks charges one device kernel per layer. The host runs
 * one kernel per layer too, the same one for single images, batches
 * and training.
 */

#ifndef LYNX_APPS_LENET_HH
#define LYNX_APPS_LENET_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace lynx::apps {

/** All learnable parameters of LeNet-5 (28×28 input variant). */
struct LeNetParams
{
    // conv1: 6 output channels, 5x5 kernels, pad 2 (28x28 -> 28x28),
    // then 2x2 average pool -> 14x14.
    std::vector<float> conv1W; // [6][1][5][5]
    std::vector<float> conv1B; // [6]
    // conv2: 16 channels, 5x5, no pad (14x14 -> 10x10), pool -> 5x5.
    std::vector<float> conv2W; // [16][6][5][5]
    std::vector<float> conv2B; // [16]
    // fc1: 400 -> 120, fc2: 120 -> 84, fc3: 84 -> 10.
    std::vector<float> fc1W, fc1B;
    std::vector<float> fc2W, fc2B;
    std::vector<float> fc3W, fc3B;

    /** @return parameters initialized from @p seed. */
    static LeNetParams random(std::uint64_t seed);
};

/** LeNet-5 digit classifier (28×28 grayscale input, 10 classes). */
class LeNet
{
  public:
    static constexpr int imageDim = 28;
    static constexpr int imageBytes = imageDim * imageDim;
    static constexpr int numClasses = 10;

    /**
     * Every layer's output for one image, feature maps laid out
     * [channel][row][column]. forward() fills one on its stack; the
     * trainer's backward pass reads it as its cache.
     */
    struct Activations
    {
        std::array<float, imageBytes> x;      ///< normalized input
        std::array<float, 6 * 28 * 28> c1;    ///< conv1 + tanh
        std::array<float, 6 * 14 * 14> p1;    ///< 2x2 average pool
        std::array<float, 16 * 10 * 10> c2;   ///< conv2 + tanh
        std::array<float, 16 * 5 * 5> p2;     ///< 2x2 average pool
        std::array<float, 120> f1;            ///< fc1 + tanh
        std::array<float, 84> f2;             ///< fc2 + tanh
        std::array<float, numClasses> logits; ///< fc3
    };

    /** Build the network with weights derived from @p seed. */
    explicit LeNet(std::uint64_t seed = 0x1e4e7)
        : LeNet(LeNetParams::random(seed))
    {}

    /** Build the network from (e.g. trained) parameters. */
    explicit LeNet(LeNetParams params);

    /**
     * Run the full forward pass. Each layer keeps many independent
     * outputs in its innermost loops, and each output adds its terms
     * in textbook order (bias, then input channel → kernel row →
     * kernel column, or ascending input), so the result is
     * bit-identical to a one-output-at-a-time pass.
     * @param image 784 grayscale bytes, row-major.
     * @return softmax probabilities over the 10 digit classes.
     */
    std::array<float, numClasses>
    forward(std::span<const std::uint8_t> image) const;

    /** forward(@p image), keeping every layer's output in @p acts. */
    std::array<float, numClasses>
    forward(std::span<const std::uint8_t> image, Activations &acts) const;

    /** @return the argmax class of forward(@p image). */
    int classify(std::span<const std::uint8_t> image) const;

    /** @return forward() of each image, in order. */
    std::vector<std::array<float, numClasses>>
    forwardBatch(std::span<const std::span<const std::uint8_t>> images)
        const;

    /** @return classify() of each image, in order. */
    std::vector<int>
    classifyBatch(std::span<const std::span<const std::uint8_t>> images)
        const;

    /** @return the parameters. */
    const LeNetParams &params() const { return params_; }

  private:
    LeNetParams params_;
    // fc1W/fc2W/fc3W transposed to [in][out], so the dense layers
    // sweep each input's row of weights across all outputs.
    std::vector<float> fc1T_, fc2T_, fc3T_;
};

} // namespace lynx::apps

#endif // LYNX_APPS_LENET_HH
