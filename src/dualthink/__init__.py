"""Two-speed question answering with an ablatable deliberation pipeline."""
