"""Static analysis of Java source trees for object-oriented design smells."""

__version__ = "0.1.0"

from .lexer import LexError, SourceFile, Token, tokenize
from .parser import ParseError, ParsedFile, parse
from .model import PseudoModel, build_model
from .metrics import ProjectMetrics, TypeMetrics
from .smells import RuleConfig, SmellFinding, SmellKind, detect_all
from .pipeline import AnalysisResult, analyze_tree

__all__ = [
    "AnalysisResult",
    "LexError",
    "ParseError",
    "ParsedFile",
    "ProjectMetrics",
    "PseudoModel",
    "RuleConfig",
    "SmellFinding",
    "SmellKind",
    "SourceFile",
    "Token",
    "TypeMetrics",
    "analyze_tree",
    "build_model",
    "detect_all",
    "parse",
    "tokenize",
    "__version__",
]
