"""Exception types raised by the toolkit."""


class SliceRadonError(Exception):
    """Base class for all toolkit errors."""


class BadMagic(SliceRadonError):
    """PGM data does not start with P2 or P5."""


class BadHeader(SliceRadonError):
    """PGM header has non-positive dimensions or an invalid maxval."""


class TruncatedData(SliceRadonError):
    """PGM raster short or malformed: fewer samples than width * height, or
    a P2 sample that is not a nonnegative integer."""


class SpecTooDense(SliceRadonError):
    """Requested stripes do not fit inside the sign disk."""


class BadTarget(SliceRadonError):
    """Downscale target is larger than the source image."""


class AngleOutOfRange(SliceRadonError):
    """Projection angle outside [0, 180)."""


class ProfileTooShort(SliceRadonError):
    """Profile has fewer than 3 samples."""


class ImageTooSmall(SliceRadonError):
    """Detector needs at least an 8x8 image."""


class BadRadiusRange(SliceRadonError):
    """Hough radius range violates 1 <= r_min <= r_max <= min(w, h) / 2."""


class BadDetectorParams(SliceRadonError):
    """DetectorParams field outside its allowed values."""


class EmptyCorpus(SliceRadonError):
    """Corpus directory has no usable manifest entries."""
