"""Evidence and possibility theory over finite frames.

Mass, belief, and plausibility; possibility and necessity; level-cut
decompositions linking the two; fuzzy sets with possibilistic and Bayesian
conditioning; and the elicitation of graded "probably" statements through
maximum entropy and minimum specificity, with a bracket check over every subset.
"""

from .elicit import (
    BracketReport,
    VagueStatement,
    bracket_check,
    maxent_distribution,
    minspec_mass,
)
from .errors import (
    ConditioningError,
    CredalError,
    DocumentError,
    FrameMismatchError,
    NormalizationError,
    ValidationError,
)
from .evidence import (
    Classification,
    MassFunction,
    ProbabilityDistribution,
    TrianglePoint,
    TriangleRegion,
    make_mass,
)
from .document import Document, parse_document
from .frames import Frame, Subset, parse_frame, parse_subset
from .fuzzy import (
    FuzzySet,
    NumericScale,
    PossibilisticConditioning,
    bayes_fuzzy_condition,
    fuzzy_event_probability,
    membership_from_random_set,
    possibilistic_condition,
)
from .possibility import (
    ConsistencyReport,
    PossibilityDistribution,
    consonant_approximate,
    contour,
    make_possibility,
    pi_to_mass,
)

__version__ = "0.1.0"

__all__ = [
    "BracketReport",
    "Classification",
    "ConditioningError",
    "ConsistencyReport",
    "CredalError",
    "Document",
    "DocumentError",
    "Frame",
    "FrameMismatchError",
    "FuzzySet",
    "MassFunction",
    "NormalizationError",
    "NumericScale",
    "PossibilisticConditioning",
    "PossibilityDistribution",
    "ProbabilityDistribution",
    "Subset",
    "TrianglePoint",
    "TriangleRegion",
    "VagueStatement",
    "ValidationError",
    "bayes_fuzzy_condition",
    "bracket_check",
    "consonant_approximate",
    "contour",
    "fuzzy_event_probability",
    "make_mass",
    "make_possibility",
    "maxent_distribution",
    "membership_from_random_set",
    "minspec_mass",
    "parse_document",
    "parse_frame",
    "parse_subset",
    "pi_to_mass",
    "possibilistic_condition",
]
