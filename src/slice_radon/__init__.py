"""slice-radon: parallel projections of 2D images computed through spectrum
slices (complex DFT or real DCT backend), a direct Radon oracle, and a
detector for the striped end-of-restriction traffic-sign class."""

from .bench import BenchReport, BenchRow, cst_sinogram, run_bench
from .corpus import (CLASS_LABELS, POSITIVE_CLASS, ClassRow, CorpusReport,
                     CorpusTemplates, evaluate_corpus, generate_corpus, read_manifest)
from .detector import (Circle, DetectionResult, DetectorParams, Extremum,
                       ProjectionProfile, detect_end_of_restriction, find_extrema,
                       locate_circle, normalize_profile, profile_to_csv, project_cst,
                       result_to_dict)
from .errors import (AngleOutOfRange, BadDetectorParams, BadHeader, BadMagic,
                     BadRadiusRange, BadTarget, EmptyCorpus, ImageTooSmall, ProfileTooShort,
                     SliceRadonError, SpecTooDense, TruncatedData)
from .image import (Degradation, GrayImage, SignSpec, degrade, load_pgm, save_pgm,
                    synth_sign)
from .transforms import (Spectrum2D, SpectrumSlice, dct2, dft2, extract_slice,
                         inverse_slice, next_pow2, radon_direct, ramp_filter, slice_to_csv)

__version__ = "0.1.0"
