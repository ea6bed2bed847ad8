"""Tests for the byte-level tokenizer."""

import numpy as np
import pytest

from repro.core.engine import ContextParallelEngine
from repro.model.config import tiny_config
from repro.model.llama import LlamaModel
from repro.model.tokenizer import BOS_ID, EOS_ID, VOCAB_SIZE, ByteTokenizer
from repro.serving.session import ChatSession


class TestByteTokenizer:
    def test_ascii_roundtrip(self):
        tok = ByteTokenizer()
        text = "hello, context parallelism!"
        assert tok.decode(tok.encode(text)) == text

    def test_unicode_roundtrip(self):
        tok = ByteTokenizer()
        text = "naïve café — 1M tokens ✓"
        assert tok.decode(tok.encode(text)) == text

    def test_bos_eos(self):
        tok = ByteTokenizer()
        ids = np.append(tok.encode("ab"), EOS_ID)
        assert ids[0] == BOS_ID
        assert tok.decode(ids) == "ab"  # specials dropped

    def test_no_bos(self):
        tok = ByteTokenizer()
        ids = tok.encode("xy", add_bos=False)
        assert ids.tolist() == [120, 121]

    def test_vocab_bounds(self):
        tok = ByteTokenizer()
        ids = tok.encode("any text at all")
        assert max(ids.max(), EOS_ID) < VOCAB_SIZE

    def test_invalid_bytes_replaced(self):
        tok = ByteTokenizer()
        # a lone continuation byte is invalid UTF-8
        assert "�" in tok.decode(np.array([0x80]))

    def test_through_cp_engine(self):
        """Text -> CP engine -> text, lossless vs single device."""
        tok = ByteTokenizer()
        model = LlamaModel(
            tiny_config(vocab_size=VOCAB_SIZE), seed=8
        )
        engine = ContextParallelEngine(model, world_size=2)
        prompt = tok.encode("ring attention")
        generated = ChatSession(engine, 0).send(prompt, max_new_tokens=6).generated
        # reference greedy loop
        history = list(prompt)
        for _ in range(6):
            logits = model.forward(np.array(history))
            history.append(int(np.argmax(logits[-1])))
        assert generated == history[-6:]
        assert isinstance(tok.decode(generated), str)
