#ifndef SLAMBENCH_SUPPORT_IMAGE_HPP
#define SLAMBENCH_SUPPORT_IMAGE_HPP

/**
 * @file
 * Dense 2D image buffers and portable-anymap (PPM/PGM) export.
 *
 * Image<T> is the carrier type for every per-pixel map in the pipeline
 * (depth maps, vertex maps, normal maps, RGB frames, track data).
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace slambench::support {

/** 8-bit RGB pixel. */
struct Rgb8
{
    uint8_t r = 0;
    uint8_t g = 0;
    uint8_t b = 0;

    friend bool
    operator==(const Rgb8 &a, const Rgb8 &b)
    {
        return a.r == b.r && a.g == b.g && a.b == b.b;
    }
};

/**
 * Row-major dense 2D buffer.
 *
 * @tparam T Pixel type; must be default-constructible.
 */
template <typename T>
class Image
{
  public:
    /** Construct an empty (0x0) image. */
    Image() = default;

    /**
     * Construct a width x height image with value-initialized pixels.
     */
    Image(size_t width, size_t height)
        : width_(width), height_(height), pixels_(width * height)
    {}

    /** Construct with every pixel set to @p fill. */
    Image(size_t width, size_t height, const T &fill)
        : width_(width), height_(height), pixels_(width * height, fill)
    {}

    /** @return image width in pixels. */
    size_t width() const { return width_; }
    /** @return image height in pixels. */
    size_t height() const { return height_; }
    /** @return total pixel count. */
    size_t size() const { return pixels_.size(); }
    /** @return true when the image has no pixels. */
    bool empty() const { return pixels_.empty(); }

    /** Resize, discarding contents; pixels are value-initialized. */
    void
    resize(size_t width, size_t height)
    {
        width_ = width;
        height_ = height;
        pixels_.assign(width * height, T{});
    }

    /**
     * Size to @p width x @p height for a writer of every pixel: an
     * image already of that size keeps its bytes instead of being
     * cleared first (resize() otherwise).
     */
    void
    sizeForOverwrite(size_t width, size_t height)
    {
        if (width_ != width || height_ != height)
            resize(width, height);
    }

    /** Set every pixel to @p value. */
    void
    fill(const T &value)
    {
        pixels_.assign(pixels_.size(), value);
    }

    /** Unchecked pixel access. */
    T &operator()(size_t x, size_t y) { return pixels_[y * width_ + x]; }
    /** Unchecked pixel access. */
    const T &
    operator()(size_t x, size_t y) const
    {
        return pixels_[y * width_ + x];
    }

    /** Linear access by pixel index. */
    T &operator[](size_t i) { return pixels_[i]; }
    /** Linear access by pixel index. */
    const T &operator[](size_t i) const { return pixels_[i]; }

    /** @return true when (x, y) lies inside the image. */
    bool
    contains(long x, long y) const
    {
        return x >= 0 && y >= 0 && static_cast<size_t>(x) < width_ &&
               static_cast<size_t>(y) < height_;
    }

    /** @return pointer to the first pixel of row-major storage. */
    T *data() { return pixels_.data(); }
    /** @return pointer to the first pixel of row-major storage. */
    const T *data() const { return pixels_.data(); }

  private:
    size_t width_ = 0;
    size_t height_ = 0;
    std::vector<T> pixels_;
};

/**
 * Write an RGB image as a binary PPM (P6) file.
 *
 * @param image Source pixels.
 * @param path Destination file path.
 * @return true on success, false on I/O failure.
 */
bool writePpm(const Image<Rgb8> &image, const std::string &path);

/**
 * Write a float image as an 8-bit binary PGM (P5), linearly mapping
 * [lo, hi] to [0, 255] and clamping outside values.
 *
 * @param image Source pixels.
 * @param path Destination file path.
 * @param lo Value mapped to black.
 * @param hi Value mapped to white; must differ from @p lo.
 * @return true on success, false on I/O failure.
 */
bool writePgm(const Image<float> &image, const std::string &path,
              float lo, float hi);

/**
 * Render a float image as coarse ASCII art (for terminal inspection).
 *
 * @param image Source pixels.
 * @param out_width Character columns of the output (rows follow aspect
 *                  ratio with a 0.5 character-cell correction).
 * @param lo Value mapped to the darkest glyph.
 * @param hi Value mapped to the lightest glyph.
 * @return multi-line string.
 */
std::string asciiArt(const Image<float> &image, size_t out_width,
                     float lo, float hi);

} // namespace slambench::support

#endif // SLAMBENCH_SUPPORT_IMAGE_HPP
