"""State-dict flattening — phase 1 of the checkpoint pipeline (§5.3).

Given an arbitrary nested Python object (dicts, lists, tuples, scalars,
NumPy arrays, :class:`~repro.tensor.tensor.DeviceTensor`), the engine needs:

1. a flat list of the *large* payloads (tensors/arrays) with their sizes so
   it can plan device-to-host copies and file offsets, and
2. a lightweight skeleton of everything else, so the original object can be
   rebuilt at restart time with the payloads patched back in.

This mirrors the paper's description: "recursively parse the Python object,
and create a list of large arrays and tensors ... by storing their memory
pointers and sizes".
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..exceptions import SerializationError
from .tensor import Device, DeviceTensor

#: Key paths are tuples of dict keys / sequence indices from the root.
KeyPath = Tuple[Any, ...]


@dataclass(frozen=True)
class TensorRef:
    """A reference to one tensor payload inside a state dict."""

    path: KeyPath
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int
    device: str
    #: The live payload (device-resident); not serialized into headers.
    payload: Any = field(repr=False, compare=False, default=None)

    @property
    def key(self) -> str:
        """Dotted string form of the key path (used for file naming/logging)."""
        return ".".join(str(part) for part in self.path)


class _Placeholder:
    """Marks the position of an extracted tensor inside the skeleton."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<tensor #{self.index}>"


@dataclass
class FlattenedState:
    """Result of :func:`flatten_state_dict`."""

    tensors: List[TensorRef]
    skeleton: Any

    @property
    def total_tensor_bytes(self) -> int:
        """Total payload bytes across all tensors."""
        return sum(ref.nbytes for ref in self.tensors)

    def skeleton_bytes(self) -> bytes:
        """Pickle the skeleton (tensors replaced by placeholders)."""
        try:
            return pickle.dumps(self.skeleton, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pragma: no cover - defensive
            raise SerializationError(f"cannot pickle state skeleton: {exc}") from exc


def _is_tensor_leaf(value: Any) -> bool:
    return isinstance(value, (np.ndarray, DeviceTensor))


def flatten_state_dict(state: Any) -> FlattenedState:
    """Flatten ``state`` into tensor references plus a picklable skeleton."""
    tensors: List[TensorRef] = []

    def visit(value: Any, path: KeyPath) -> Any:
        if _is_tensor_leaf(value):
            index = len(tensors)
            if isinstance(value, DeviceTensor):
                array = value.array
                device = str(value.device)
            else:
                array = value
                device = str(Device.cpu())
            ref = TensorRef(
                path=path,
                shape=tuple(array.shape),
                dtype=str(array.dtype),
                nbytes=int(array.nbytes),
                device=device,
                payload=value,
            )
            tensors.append(ref)
            return _Placeholder(index)
        if isinstance(value, dict):
            return {key: visit(item, path + (key,)) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            items = [visit(item, path + (idx,)) for idx, item in enumerate(value)]
            return type(value)(items) if isinstance(value, tuple) else items
        return value

    try:
        skeleton = visit(state, ())
    finally:
        # ``visit`` refers to itself through its closure; break that cycle,
        # or the tensor list (and the caller's arrays) would live until a
        # cyclic GC pass.
        del visit
    return FlattenedState(tensors=tensors, skeleton=skeleton)


def unflatten_state_dict(skeleton: Any, arrays: Sequence[np.ndarray]) -> Any:
    """Rebuild the original nested object from a skeleton and tensor payloads."""

    def visit(value: Any) -> Any:
        if isinstance(value, _Placeholder):
            if value.index >= len(arrays):
                raise SerializationError(
                    f"skeleton references tensor #{value.index} but only "
                    f"{len(arrays)} payloads were provided"
                )
            return arrays[value.index]
        if isinstance(value, dict):
            return {key: visit(item) for key, item in value.items()}
        if isinstance(value, list):
            return [visit(item) for item in value]
        if isinstance(value, tuple):
            return tuple(visit(item) for item in value)
        return value

    try:
        return visit(skeleton)
    finally:
        del visit  # the self-reference cycle, as in flatten_state_dict


def state_dict_nbytes(state: Any) -> int:
    """Total tensor payload bytes of a nested state dict."""
    return flatten_state_dict(state).total_tensor_bytes


def tensor_payload_array(ref: TensorRef) -> np.ndarray:
    """Return the NumPy array behind a :class:`TensorRef`."""
    payload = ref.payload
    if isinstance(payload, DeviceTensor):
        return payload.array
    if isinstance(payload, np.ndarray):
        return payload
    raise SerializationError(f"tensor reference {ref.key!r} has no live payload")
