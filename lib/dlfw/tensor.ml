type t = {
  tensor_id : int;
  name : string;
  mutable shape : Shape.t;
  dtype : Dtype.t;
  blk : Allocator.block;
  pool : Allocator.t;
  mutable rc : int;
}

let counter = ref 0

let create pool ?(name = "tensor") shape dtype =
  let bytes = Shape.bytes shape dtype in
  let blk = Allocator.alloc pool ~tag:name bytes in
  incr counter;
  { tensor_id = !counter; name; shape; dtype; blk; pool; rc = 1 }

let shape t = t.shape
let dtype t = t.dtype
let numel t = Shape.numel t.shape
let bytes t = Shape.bytes t.shape t.dtype
let id t = t.tensor_id
let is_live t = t.rc > 0
let refcount t = t.rc

let base t =
  if t.rc <= 0 then invalid_arg ("Tensor.base: use after free of " ^ t.name);
  t.blk.Allocator.base

let reshape t shape =
  if t.rc <= 0 then invalid_arg ("Tensor.reshape: use after free of " ^ t.name);
  if Shape.bytes shape t.dtype <> Shape.bytes t.shape t.dtype then
    invalid_arg "Tensor.reshape: byte count mismatch";
  t.shape <- shape;
  t

let retain t =
  if t.rc <= 0 then invalid_arg ("Tensor.retain: use after free of " ^ t.name);
  t.rc <- t.rc + 1;
  t

let release t =
  if t.rc <= 0 then invalid_arg ("Tensor.release: double release of " ^ t.name);
  t.rc <- t.rc - 1;
  if t.rc = 0 then Allocator.free t.pool t.blk
