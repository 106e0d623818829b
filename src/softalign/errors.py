"""Exception types shared across the package."""


class SoftalignError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(SoftalignError):
    """Operands have incompatible shapes."""


class ZeroRow(SoftalignError):
    """A row that must be normalizable has (near-)zero norm."""


class BatchTooSmall(SoftalignError):
    """Batch-level operation called with fewer rows than it needs."""


class DegenerateRow(SoftalignError):
    """A distribution row has no usable negative mass left."""


class DegenerateTargets(SoftalignError):
    """Target construction that would make the divergence unbounded."""


class SpecInvalid(SoftalignError):
    """Synthetic dataset spec fails validation."""


class FormatError(SoftalignError):
    """On-disk container is malformed (bad magic, version, or shapes)."""


class IndexOutOfRange(SoftalignError):
    """Batch index outside the dataset."""


class GalleryTooSmall(SoftalignError):
    """Evaluation gallery smaller than the profile/metric requires."""


class ConfigError(SoftalignError):
    """Run configuration is invalid (bad key, bad value, bad combination)."""


class NonFiniteValue(SoftalignError):
    """Training produced a non-finite head output, loss component, gradient
    or parameter."""

    def __init__(self, message: str, step: int = -1, name: str = ""):
        super().__init__(message)
        self.step = step
        self.name = name
