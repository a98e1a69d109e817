"""Exception hierarchy for voxprop.

Every error raised deliberately by this package derives from
:class:`VoxpropError`, so callers can catch one base class. Input and
validation problems use the specific subclasses below; genuine programming
errors (wrong argument types and the like) raise the usual built-ins.
"""


class VoxpropError(Exception):
    """Base class for all errors raised by voxprop."""


# --- volume operations -------------------------------------------------------

class ConstantVolume(VoxpropError):
    """Min-max normalization is undefined: the volume is constant in the roi."""


class TargetTooLarge(VoxpropError):
    """A crop target exceeds the source volume along at least one axis."""


class DimMismatch(VoxpropError):
    """Volumes that must share a voxel grid have different dimensions."""


# --- NIfTI i/o ---------------------------------------------------------------

class BadMagic(VoxpropError):
    """The file is not a single-file little-endian NIfTI-1 volume."""


class UnsupportedDatatype(VoxpropError):
    """The file's datatype code is outside the supported subset."""


class TruncatedFile(VoxpropError):
    """The file ends before the header or voxel data it declares."""


class PathCountMismatch(VoxpropError):
    """The number of annotation mask files does not match the label set."""


class IoFailure(VoxpropError):
    """An underlying filesystem write failed."""


# --- lattice construction ----------------------------------------------------

class EmptyRoi(VoxpropError):
    """The region-of-interest mask selects no voxels."""


class NonFiniteInput(VoxpropError):
    """An intensity or parameter is NaN or infinite."""


# --- Dirichlet solver --------------------------------------------------------

class NoSeeds(VoxpropError):
    """The system has no seeded node at all."""


class ConvergenceFailure(VoxpropError):
    """The CG hit its step cap or missed its tolerance on the true residual,
    or the solver produced out-of-range probabilities (a misconfigured system).

    Attributes
    ----------
    iterations : int or None
        Iterations performed before giving up.
    residual : float or None
        Achieved absolute Jacobi residual ||D^-1 (b - L_U x)||: an estimate
        of the label's error, not a bound on it.
    """

    def __init__(self, message, *, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SeedlessComponent(VoxpropError):
    """One or more blocks of unseeded voxels have no edge to a seed, so a
    random walker started there never reaches one.

    Attributes
    ----------
    component_ids : tuple of int
        Ids of the seedless blocks, among the connected blocks of unseeded
        voxels numbered by their first x-fastest voxel.
    """

    def __init__(self, message, *, component_ids=()):
        super().__init__(message)
        self.component_ids = tuple(int(c) for c in component_ids)


# --- propagation -------------------------------------------------------------

class NoSeedsInRoi(VoxpropError):
    """No single-labeled voxel falls inside the region of interest."""


class OverlappingHemispheres(VoxpropError):
    """The two hemisphere masks intersect."""


class BadSpec(VoxpropError):
    """A phantom specification is inconsistent or out of range."""


# --- fusion ------------------------------------------------------------------

class TooFewMaps(VoxpropError):
    """Majority voting needs at least two input label maps."""
