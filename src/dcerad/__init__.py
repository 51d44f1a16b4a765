"""dcerad: kinetic-curve and radiomic features for benign/malignant lesion
classification in six-phase breast DCE-MRI."""

from .config import RunConfig
from .evaluation import EvalReport, confusion_metrics, cross_validate, roc_auc
from .filters import DerivedImageId, default_catalog, derive, log_filter, wavelet_bands
from .kinetics import (DYNAMIC_FEATURE_NAMES, DynamicFeatures, RateMap,
                       extract_dynamic_features)
from .lda import LdaModel, lda_fit, lda_predict, lda_score
from .phantom import PhantomSpec, generate_case, generate_corpus, kinetic_curve
from .radiomics import (RadiomicFeatureSet, discretize, extract_radiomic_features,
                        radiomic_feature_names)
from .selection import FeatureMatrix, SelectionModel, lasso_fit, lambda_path_cv, select_block
from .volume import DceSeries, LesionRoi, Mask3D, Volume3D

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "EvalReport", "confusion_metrics", "cross_validate", "roc_auc",
    "DerivedImageId", "default_catalog", "derive", "log_filter", "wavelet_bands",
    "DYNAMIC_FEATURE_NAMES", "DynamicFeatures", "RateMap",
    "extract_dynamic_features", "LdaModel", "lda_fit", "lda_predict", "lda_score",
    "PhantomSpec", "generate_case", "generate_corpus", "kinetic_curve",
    "RadiomicFeatureSet", "discretize", "extract_radiomic_features",
    "radiomic_feature_names", "FeatureMatrix", "SelectionModel", "lasso_fit",
    "lambda_path_cv", "select_block", "DceSeries", "LesionRoi", "Mask3D", "Volume3D",
    "__version__",
]
