"""Byte-level tokenizer for runnable text demos.

A reproduction meant for adoption needs end-to-end runnable examples with
*text*, not just integer arrays. This byte-level tokenizer (UTF-8 bytes as
tokens 0-255 plus a few specials) pairs with
:func:`repro.model.config.byte_tokenizer_config` so the tiny NumPy model
can round-trip real strings through the CP engine.
"""

from __future__ import annotations

import numpy as np

#: Special token ids placed after the 256 byte values.
BOS_ID = 256
EOS_ID = 257
PAD_ID = 258

#: Vocabulary size a model must have to pair with this tokenizer.
VOCAB_SIZE = 259


class ByteTokenizer:
    """UTF-8 byte tokenizer with BOS/EOS specials."""

    vocab_size = VOCAB_SIZE
    bos_id = BOS_ID
    eos_id = EOS_ID
    pad_id = PAD_ID

    def encode(self, text: str, *, add_bos: bool = True) -> np.ndarray:
        """String -> int64 token ids."""
        ids = list(text.encode("utf-8"))
        if add_bos:
            ids = [BOS_ID] + ids
        return np.array(ids, dtype=np.int64)

    def decode(self, token_ids: np.ndarray | list[int]) -> str:
        """Token ids -> string (specials dropped, invalid UTF-8 replaced)."""
        data = bytes(int(t) for t in np.asarray(token_ids).ravel() if 0 <= int(t) < 256)
        return data.decode("utf-8", errors="replace")
