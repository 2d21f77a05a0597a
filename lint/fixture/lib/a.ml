let own_only x = x + 1
let by_alias x = own_only x
let by_wrapper = 2
let test_only = 3
let listed = 4

module Nested = struct
  let used = 5
  let unused = 6
end
