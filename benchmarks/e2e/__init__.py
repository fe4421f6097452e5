"""End-to-end benchmark of the F-IVM reproduction (see README.md here)."""
