"""Static analysis of Java source trees for object-oriented design smells."""

__version__ = "0.1.0"
