type t = F32 | F16 | I64 | I32 | U8

let size_bytes = function F32 -> 4 | F16 -> 2 | I64 -> 8 | I32 -> 4 | U8 -> 1
