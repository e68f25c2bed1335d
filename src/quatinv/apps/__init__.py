"""Application pipelines: color-image deblurring and chaotic-signal filtering."""

from .ppm import (
    ColorImage,
    PpmFormatError,
    image_to_qmat,
    qmat_to_image,
    read_ppm,
    write_ppm,
)
from .deblur import (
    BlurOperator,
    RestorationMetrics,
    blur,
    build_blur,
    deblur_quaternion,
    deblur_report,
    metrics,
    real_block_restore,
)
from .lorenz import (
    FilterSystem,
    build_filter_system,
    default_order,
    lorenz_simulate,
    write_filter_csv,
    write_trajectory_csv,
)

__all__ = [
    "ColorImage",
    "PpmFormatError",
    "read_ppm",
    "write_ppm",
    "image_to_qmat",
    "qmat_to_image",
    "BlurOperator",
    "RestorationMetrics",
    "build_blur",
    "blur",
    "deblur_quaternion",
    "real_block_restore",
    "metrics",
    "deblur_report",
    "FilterSystem",
    "lorenz_simulate",
    "default_order",
    "build_filter_system",
    "write_trajectory_csv",
    "write_filter_csv",
]
